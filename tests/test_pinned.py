import pytest

from pinned import assert_pinned, kernel_fingerprint


def test_an_unrecorded_kernel_fails_with_the_digest_to_record():
    with pytest.raises(pytest.fail.Exception, match=f"exp kernel '{kernel_fingerprint()}'; this kernel gives 'abc'$"):
        assert_pinned({}, "abc")


def test_a_recorded_kernel_compares_its_own_digest():
    assert_pinned({kernel_fingerprint(): "abc"}, "abc")
    with pytest.raises(AssertionError):
        assert_pinned({kernel_fingerprint(): "abc"}, "abd")
