"""Unit tests for the seeded randomness service."""

from hypothesis import example, given, settings, strategies as st

from repro.runtime import rng
from repro.runtime.rng import RngService, hash_parts, hash_seed


def test_same_seed_same_stream():
    a = RngService(42).stream("network")
    b = RngService(42).stream("network")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_are_independent_of_request_order():
    svc1 = RngService(7)
    first_net = svc1.stream("network").random()
    svc2 = RngService(7)
    svc2.stream("fuzzyfox").random()  # extra draw on another stream
    assert svc2.stream("network").random() == first_net


def test_different_names_differ():
    svc = RngService(0)
    assert svc.stream("a").random() != svc.stream("b").random()


def test_stream_is_cached():
    svc = RngService(0)
    assert svc.stream("x") is svc.stream("x")


def test_fork_is_deterministic_and_distinct():
    svc = RngService(5)
    fork1 = svc.fork("trial-1")
    fork2 = RngService(5).fork("trial-1")
    assert fork1.stream("s").random() == fork2.stream("s").random()
    assert svc.fork("trial-1").seed != svc.fork("trial-2").seed


def test_hash_seed_is_stable():
    # must be stable across processes/runs (FNV-1a, not builtin hash)
    assert hash_seed(0, "network") == hash_seed(0, "network")
    assert hash_seed(0, "network") != hash_seed(1, "network")
    assert hash_seed(0, "a") != hash_seed(0, "b")


@given(st.integers(), st.text(max_size=40))
def test_hash_seed_in_64_bit_range(seed, name):
    value = hash_seed(seed, name)
    assert 0 <= value < 2**64


def test_hash_seed_matches_the_published_fnv1a_64_vectors():
    # seed 0 leaves the FNV-1a 64 offset basis untouched
    assert hash_seed(0, "") == 0xCBF29CE484222325
    assert hash_seed(0, "a") == 0xAF63DC4C8601EC8C
    assert hash_seed(0, "foobar") == 0x85944171F73967E8


_SEEDS = st.integers() | st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-1)


@settings(max_examples=300, deadline=None)
@given(_SEEDS, st.lists(st.text(max_size=12), max_size=7))
@example(0, [])
@example(-1, ["", "", ""])
@example(2**64 + 5, ["pop:", "ü€𝄞", "∑:", "7"])
@example(12345, ["𝄞" * 40, ""])
def test_hash_parts_equals_hash_seed_of_the_joined_label(seed, parts):
    # any part count (fixed text at even positions, a trailing fixed
    # part or not), multi-byte UTF-8 in either position
    assert hash_parts(seed, *parts) == hash_seed(seed, "".join(parts))


def test_step_memo_stays_capped_and_values_survive_a_clear():
    rng._STEPS.clear()
    texts = [f"fixed-{i}:" for i in range(3 * rng._STEPS_LIMIT)]
    expected = [hash_seed(7, f"{text}42") for text in texts]
    for text, value in zip(texts, expected):
        assert hash_parts(7, text, "42") == value
        assert len(rng._STEPS) <= rng._STEPS_LIMIT
    rng._STEPS.clear()
    assert [hash_parts(7, text, "42") for text in texts] == expected
    assert len(rng._STEPS) <= rng._STEPS_LIMIT
