"""tools/paired_bench.py: the verdict per metric, seed lists, and op times
scaled to the reference speed pass by pass."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
)
pb = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pb)

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # median 1.0, IQR 0.01


def shifted(values, by, ties=(), losses=()):
    """``values`` plus ``by``, except pair i in ``ties`` (equal) or ``losses`` (worse by 0.05)."""
    return [v if i in ties else v + 0.05 if i in losses else v + by for i, v in enumerate(values)]


@pytest.mark.parametrize(
    "change, wins, losses, call",
    [
        (shifted(PARENT, -0.05), 10, 0, "gain"),
        (shifted(PARENT, -0.05, losses={3}), 9, 1, "gain"),  # 9 of 10 is enough
        (shifted(PARENT, -0.05, losses={3, 7}), 8, 2, "level"),
        (shifted(PARENT, -0.05, ties={3}), 9, 0, "gain"),  # a tie counts for neither side
        (shifted(PARENT, -0.05, ties={3, 7}), 8, 0, "level"),
        (shifted(PARENT, -0.005), 10, 0, "level"),  # every pair won, but the gap is inside the parent's IQR
        (shifted(PARENT, 0.3), 0, 10, "worse"),  # beyond the bound of 0.25
        (shifted(PARENT, 0.2), 0, 10, "level"),
    ],
)
def test_verdict(change, wins, losses, call):
    v = pb.verdict(PARENT, change, "lower", 0.25)
    assert (v["change_wins"], v["change_losses"], v["verdict"]) == (wins, losses, call)


def test_verdict_for_a_metric_where_higher_is_better():
    assert pb.verdict(PARENT, shifted(PARENT, 0.05), "higher", 0.25)["verdict"] == "gain"
    assert pb.verdict(PARENT, shifted(PARENT, -0.3), "higher", 0.25)["verdict"] == "worse"


def test_verdict_is_unresolved_when_the_parent_spreads_beyond_the_bound():
    parent = [0.9, 0.9, 0.9, 1.0, 1.0, 1.0, 1.4, 1.4, 1.4, 1.4]  # median 1.0, IQR 0.475 > 0.25 * 1.0
    assert pb.verdict(parent, [0.95] * 10, "lower", 0.25)["verdict"] == "unresolved"
    # level if every change run beats every parent run, though the gap is inside the IQR
    assert pb.verdict(parent, [0.85] * 10, "lower", 0.25)["verdict"] == "level"
    assert pb.verdict(parent, [0.85] * 9 + [0.95], "lower", 0.25)["verdict"] == "unresolved"


@pytest.mark.parametrize(
    "text, seeds",
    [("1701-1703", [1701, 1702, 1703]), ("3,5,8", [3, 5, 8]), ("1-2,7", [1, 2, 7]), ("4", [4])],
)
def test_parse_seeds(text, seeds):
    assert pb.parse_seeds(text) == seeds


def test_reference_s_is_read_from_the_checkout_without_importing_it(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "speed.py").write_text("import no_such_module\n\nX = 1\nREFERENCE_S = 0.002\n")
    assert pb.reference_s(tmp_path) == 0.002
    (tmp_path / "perfbench" / "speed.py").write_text("X = 1\n")
    with pytest.raises(ValueError, match="no REFERENCE_S"):
        pb.reference_s(tmp_path)


def test_op_times_are_scaled_pass_by_pass():
    record = {
        "kernel_s": [0.001, 0.004],  # the second pass ran on a machine four times slower
        "op_ms": {"00.FA": [1.0, 4.0], "01.FA": [2.0, 2.0], "simulate": [3.0, 3.0]},
    }
    # scaled by 0.002 / kernel_s: 00.FA [2, 2], 01.FA [4, 1]; simulate [6, 1.5]
    assert pb.op_label_ms(record, 0.002) == {"FA": 2.25, "simulate": 3.75}
    record["op_ms"]["02.FA"] = [1.0]
    with pytest.raises(ValueError, match="1 times for 2 passes"):
        pb.op_label_ms(record, 0.002)
