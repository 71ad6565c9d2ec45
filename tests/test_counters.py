"""Per-call counters: records nest, stay in their context, and belong to one call."""

import sys
import threading

from ethroot.counters import count, record
from ethroot.numfield import FactoredElement, NumberField
from ethroot.strategy import RootRequest, eth_root

K15 = NumberField.cyclotomic(15)


def test_count_outside_a_record_is_dropped():
    count("padic", "twists")
    with record() as counts:
        pass
    assert counts == {}


def test_records_nest_additively_and_close_on_errors():
    with record() as outer:
        count("crt", "candidates", 2)
        try:
            with record() as inner:
                count("crt", "candidates")
                raise ValueError
        except ValueError:
            pass
        count("crt", "accepted")
    assert inner == {"crt": {"candidates": 1}}
    assert outer == {"crt": {"candidates": 3, "accepted": 1}}


def test_each_call_reports_its_own_counts_under_threads():
    # the same couveignes root in four threads at once, switching often: each
    # result carries the counts of its own call, as a lone call does
    x = K15.element([1, 0, -1, 0, 0, 2, 0, 1])
    req = RootRequest(K15, 3, FactoredElement(K15, [(x ** 3, 1)]), method="couveignes")
    alone = eth_root(req).stats["counters"]
    assert alone["couveignes"]["norm_checks"] > 0
    results = []
    start = threading.Barrier(4, timeout=60)

    def run():
        start.wait()
        results.append(eth_root(req).stats["counters"])

    threads = [threading.Thread(target=run) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [alone] * 4
