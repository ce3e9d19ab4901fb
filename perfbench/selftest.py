"""Self-tests of the benchmark's own arithmetic and input generation.

``run.py`` runs these before every measurement and refuses to measure if
one fails.  Run them alone with ``python3 perfbench/selftest.py`` from
the repository root.
"""

from __future__ import annotations

import math
import os
import sys


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(f"self-test failed: {what}")


def test_percentile() -> None:
    import arith

    values = [float(v) for v in range(1, 1001)]  # 1..1000
    p50, n, beyond50 = arith.percentile(values, 0.50)
    check((p50, n, beyond50) == (500.0, 1000, 500), f"p50 of 1..1000 is {p50}/{n}/{beyond50}")
    p99, _, beyond99 = arith.percentile(list(reversed(values)), 0.99)
    check((p99, beyond99) == (990.0, 10), f"p99 of 1..1000 is {p99} with {beyond99} beyond")
    check(arith.percentile([7.0], 0.99) == (7.0, 1, 0), "percentile of one sample")
    _, _, short = arith.percentile(values[:500], 0.99)
    check(short == 5, "500 samples leave 5 beyond p99")


def test_union_and_self_time() -> None:
    import arith

    check(arith.union_length([(0, 10), (5, 15), (20, 30)]) == 25, "union of overlapping")
    check(arith.union_length([(0, 10), (2, 3)]) == 10, "union of a contained interval")
    check(arith.union_length([]) == 0, "union of nothing")
    # root [0,100] > a [10,50] > b [20,30]; root > c [40,70] overlaps a.
    spans = [(0, 0, 100), (1, 10, 50), (2, 20, 30), (3, 40, 70)]
    own, parent = arith.self_times(spans)
    check(parent == [-1, 0, 1, 0], f"parents {parent}")
    # root's children a and c cover [10,70] once: 100 - 60, not 100 - 70.
    check(own == [40, 30, 10, 30], f"self times {own}")
    check(arith.top_ancestor(parent) == [0, 0, 0, 0], "top ancestors")
    # Two overlapping children inside one parent, plus a separate root.
    spans = [(0, 0, 10), (1, 2, 6), (1, 4, 8), (2, 20, 25)]
    own, parent = arith.self_times(spans)
    check(own == [4, 4, 4, 5] and parent == [-1, 0, 0, -1], f"overlap self {own} {parent}")


def test_cpu_and_unattributed() -> None:
    import arith

    check(math.isclose(arith.cpu_per_request_us(2.0, 2.5, 1000), 500.0), "cpu per request")
    check(math.isclose(arith.unattributed_us(120.0, [30.0, 50.0, 15.5]), 24.5), "unattributed")
    check(arith.ratio(3, 0) == 0.0 and arith.ratio(3, 4) == 0.75, "ratio")
    check(not arith.backlog_grew([2, 3, 1, 2] * 50), "steady backlog")
    check(arith.backlog_grew(list(range(200))), "growing backlog")
    check(not arith.backlog_grew([1] * 150 + [60] * 5 + [1] * 45), "one stall is not growth")


def test_seeded_inputs() -> None:
    import inputs

    for workload in inputs.WORKLOADS:
        make = lambda seed: inputs.make_plan(  # noqa: E731
            workload, seed, callers=4, open_rate=200.0, open_seconds=2.0
        )
        a, b, c = make(7), make(7), make(8)
        check(a == b, f"{workload}: the same seed gives the same inputs")
        check(a.streams != c.streams and a.arrivals != c.arrivals, f"{workload}: seeds differ")
        check(350 < len(a.arrivals) < 450, f"{workload}: Poisson count {len(a.arrivals)}")
        check(all(x[0] < y[0] for x, y in zip(a.arrivals, a.arrivals[1:])), "arrivals ordered")
        users = [{r[1] for r in s} for s in a.streams] if workload != "echo" else []
        check(
            all(not (u & v) for i, u in enumerate(users) for v in users[i + 1 :]),
            f"{workload}: closed-loop callers own disjoint users",
        )


def test_reference() -> None:
    import inputs

    ref = inputs.Reference()
    user, cur = "u-test", "JPY"
    check(ref.expect(("view_cart", user, "OLJCESPC7Z", 1, cur)) == [], "empty cart")
    check(ref.expect(("add_to_cart", user, "OLJCESPC7Z", 2, cur)) == 2, "add")
    check(ref.expect(("add_to_cart", user, "66VCHSJNUP", 1, cur)) == 3, "add another")
    total, lines = ref.expect(("checkout", user, "OLJCESPC7Z", 3, cur))
    check(total == 6 and lines == [("66VCHSJNUP", 1), ("OLJCESPC7Z", 5)], "checkout lines")
    check(ref.expect(("view_cart", user, "OLJCESPC7Z", 1, cur)) == [], "empty after checkout")
    # USD 19.99 -> EUR pivot -> JPY, rounded to the nano.
    want = round((19 * 10**9 + 990_000_000) / 1.1305 * 126.40)
    check(inputs.price_nanos("OLJCESPC7Z", "JPY") == want, "currency conversion")
    check(inputs.price_nanos("OLJCESPC7Z", "USD") == 19_990_000_000, "same-currency price")


TESTS = [
    test_percentile,
    test_union_and_self_time,
    test_cpu_and_unattributed,
    test_seeded_inputs,
    test_reference,
]


def run_all() -> None:
    for test in TESTS:
        test()


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    run_all()
    print(f"{len(TESTS)} self-tests passed")
