"""``benchmarks/ab_pairs.py``: the summary arithmetic, on a synthetic pair list."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

SPECS = [
    {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
]


def pair(workload, parent, change):
    return {"workload": workload, "parent": {"metrics": parent}, "change": {"metrics": change}}


def steps(workload, parent_ms, change_ms):
    return [
        pair(workload, {"op_ms": a, "ops_per_s": 1000 / a}, {"op_ms": b, "ops_per_s": 1000 / b})
        for a, b in zip(parent_ms, change_ms)
    ]


def test_medians_quartiles_ranges_and_pairs_won():
    # The change wins three pairs, ties one (which counts for neither side) and loses one.
    rows = steps("w", [10.0, 12.0, 14.0, 16.0, 18.0], [8.0, 9.0, 14.0, 10.0, 20.0])
    row = ab_pairs.summarize(rows, SPECS)["w"]["op_ms"]
    assert row["pairs"] == 5
    assert (row["parent_median"], row["change_median"]) == (14.0, 10.0)
    assert row["change_over_parent"] == pytest.approx(10 / 14)
    assert row["per_pair_ratio"] == pytest.approx([0.8, 0.75, 1.0, 0.625, 20 / 18])
    assert (row["pairs_change_better"], row["pairs_parent_better"]) == (3, 1)
    assert (row["parent_iqr"], row["change_iqr"]) == (4.0, 5.0)  # 16 - 12 and 14 - 9
    assert row["median_gain_over_parent_iqr"] == 1.0  # (14 - 10) / 4
    assert (row["parent_range"], row["change_range"]) == (8.0, 12.0)
    assert row["spread_bound"] == 3.5 and row["spread_ok"] is False


def test_higher_is_better_flips_who_wins_and_the_gain_sign():
    rows = steps("w", [10.0, 12.0, 14.0, 16.0, 18.0], [8.0, 9.0, 14.0, 10.0, 20.0])
    row = ab_pairs.summarize(rows, SPECS)["w"]["ops_per_s"]
    assert (row["pairs_change_better"], row["pairs_parent_better"]) == (3, 1)
    assert row["change_median"] == 100.0 and row["median_gain_over_parent_iqr"] > 0
    assert row["spread_bound"] == pytest.approx(0.25 * 1000 / 14)


def test_a_shorter_step_spreads_wider_in_its_reciprocal():
    """The corridor of ROADMAP item 1: the same +2 ms disturbance on a step
    made 2x shorter passes the bound in ms and fails it in ops/s."""
    rows = steps("w", [20.0, 20.0, 22.0], [10.0, 10.0, 12.0])
    summary = ab_pairs.summarize(rows, SPECS)["w"]
    assert summary["op_ms"]["spread_ok"] and summary["op_ms"]["change_range"] == 2.0
    assert summary["ops_per_s"]["change_range"] == pytest.approx(100 - 1000 / 12)  # 16.7 > 12.5
    assert not summary["ops_per_s"]["spread_ok"]


def test_workloads_are_kept_apart_and_failed_runs_left_out():
    rows = steps("a", [10.0, 10.0], [9.0, 9.0]) + steps("b", [5.0], [6.0])
    rows.append(pair("a", {"op_ms": 10.0}, {}))  # the change's run failed: no metrics
    summary = ab_pairs.summarize(rows, SPECS)
    assert list(summary) == ["a", "b"]
    assert summary["a"]["op_ms"]["pairs"] == 2 and summary["a"]["op_ms"]["pairs_change_better"] == 2
    assert summary["b"]["op_ms"]["pairs_parent_better"] == 1
    assert summary["b"]["op_ms"]["parent_iqr"] == 0.0  # one run has no quartiles
    assert summary["b"]["op_ms"]["median_gain_over_parent_iqr"] is None


def test_corridor_floor_is_three_disturbances_for_an_unchanged_step():
    """ROADMAP item 1: with t_c = t_p and a bound of 0.25, ``t_c (t_c + d) > 4 d t_p``
    is ``t > 3 d`` — a step of exactly 3 d sits on the floor, not inside."""
    assert ab_pairs.corridor_floor(30.0, 10.0, 0.25) == pytest.approx(30.0)
    for t, d, inside in [(31.0, 10.0, True), (30.0, 10.0, False), (20.0, 10.0, False)]:
        same = [t - d / 2, t, t + d / 2]  # median t, range d, on both sides
        row = ab_pairs.summarize(steps("w", same, same), SPECS)["w"]["op_ms"]
        assert (row["parent_median"], row["parent_range"]) == (t, d)
        floor = row["corridor_floor"]
        assert floor * (floor + d) == pytest.approx(4 * d * t)
        assert row["inside_corridor"] is inside


def test_corridor_is_for_per_op_times_only_and_a_faster_change_can_leave_it():
    rows = steps("w", [40.0, 44.0, 48.0], [20.0, 21.0, 22.0])  # d = 8, t_p = 44
    summary = ab_pairs.summarize(rows, SPECS)["w"]
    assert "corridor_floor" not in summary["ops_per_s"]
    assert summary["op_ms"]["corridor_floor"] == pytest.approx(33.736, abs=1e-3)
    assert summary["op_ms"]["inside_corridor"] is False  # 21 ms: its reciprocal would spread too far


PARENT_MS = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # median 14.5, IQR 4.5


def test_claim_met_at_nine_of_ten_and_a_gap_wider_than_the_parents_quartiles(capsys):
    change = [a - 5.0 for a in PARENT_MS[:9]] + [PARENT_MS[9]]  # one tie, counted for neither
    row = ab_pairs.summarize(steps("w", PARENT_MS, change), SPECS)["w"]["op_ms"]
    assert (row["pairs_change_better"], row["pairs_parent_better"]) == (9, 0)
    assert (row["parent_median"] - row["change_median"], row["parent_iqr"]) == (5.0, 4.5)
    assert row["claim_met"] is True
    ab_pairs.print_summary({"w": {"op_ms": row}})
    assert "claim_met=True" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change",
    [[a - 5.0 for a in PARENT_MS[:8]] + PARENT_MS[8:],  # far enough apart, but ahead in 8 of 10
     [a - 1.0 for a in PARENT_MS]],  # ahead in 10 of 10, but 1.0 apart against an IQR of 4.5
    ids=["eight-of-ten", "inside-the-quartiles"],
)  # fmt: skip
def test_claim_not_met(change):
    row = ab_pairs.summarize(steps("w", PARENT_MS, change), SPECS)["w"]["op_ms"]
    assert row["claim_met"] is False


def test_layer_deltas_table_from_the_traced_pairs(capsys):
    """Each per-layer ``*_ms`` row both sides report, per workload; counters,
    end-to-end metrics and a row one side lacks are left out."""
    traced = [
        pair(
            "w",
            {"tensor.optim_ms": 20.0, "comm.collective_self_ms": 1.5, "tensor.optim_calls": 8,
             "op_ms_quiet": 80.0, "compression.codec_ms": 3.0},
            {"tensor.optim_ms": 16.5, "comm.collective_self_ms": 2.0, "tensor.optim_calls": 8,
             "op_ms_quiet": 70.0},
        ),
        pair("v", {"tensor.optim_ms": 9.0}, {"tensor.optim_ms": 7.5}),
    ]  # fmt: skip
    table = ab_pairs.layer_deltas(traced)
    assert table == {
        "w": {"tensor.optim_ms": (20.0, 16.5, -3.5), "comm.collective_self_ms": (1.5, 2.0, 0.5)},
        "v": {"tensor.optim_ms": (9.0, 7.5, -1.5)},
    }
    ab_pairs.print_layer_deltas(table)
    out = capsys.readouterr().out
    assert "tensor.optim_ms" in out and "-3.500" in out and "+0.500" in out
