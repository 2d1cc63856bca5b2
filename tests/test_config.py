import sys
import threading

from hfe.config import Tolerances, get_tolerances, tolerance_overrides


def test_tolerance_overrides_are_per_thread():
    # Thread a overrides rel, then thread b overrides it differently and
    # leaves last; each must read its own value, and neither may leak.
    barrier = threading.Barrier(2, timeout=10)
    seen: dict[str, float] = {}
    errors: list[BaseException] = []

    def guarded(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # re-raised in the test thread
                errors.append(exc)
                barrier.abort()
        return run

    def a():
        with tolerance_overrides(rel=1e-6):
            barrier.wait()  # a is inside its override
            barrier.wait()  # b is inside its override
            seen["a"] = get_tolerances().rel
        barrier.wait()  # a has left

    def b():
        barrier.wait()
        with tolerance_overrides(rel=1e-3):
            barrier.wait()
            seen["b"] = get_tolerances().rel
            barrier.wait()

    threads = [threading.Thread(target=guarded(fn)) for fn in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert not errors, errors
    assert seen == {"a": 1e-6, "b": 1e-3}
    assert get_tolerances() == Tolerances()


def test_tolerance_overrides_under_thread_switching():
    # more threads than cores, switching often: every read inside an
    # override sees that thread's own value
    wrong: list[tuple[float, float]] = []

    def worker(rel):
        for _ in range(2000):
            with tolerance_overrides(rel=rel):
                got = get_tolerances().rel
                if got != rel:
                    wrong.append((rel, got))
            if get_tolerances() != Tolerances():
                wrong.append((rel, get_tolerances().rel))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(10.0 ** -i,))
                   for i in range(1, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert get_tolerances() == Tolerances()


def test_tolerance_overrides_nest_and_restore():
    with tolerance_overrides(rel=1e-6) as outer:
        assert outer.rel == 1e-6
        with tolerance_overrides(track=1e-3) as inner:
            assert (inner.rel, inner.track) == (1e-6, 1e-3)
            assert get_tolerances() == inner
        assert get_tolerances() == outer
    assert get_tolerances() == Tolerances()
