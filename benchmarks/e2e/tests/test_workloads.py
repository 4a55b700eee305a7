"""Streams are fixed functions of (seed, seconds); amounts are exact."""

from workloads import (
    AMOUNT_QUANTUM,
    WORKLOADS,
    QuantumRandom,
    ch_statement_family,
    scaled,
)


def test_quantum_random_draws_exact_multiples_that_survive_rounding():
    rng = QuantumRandom(3)
    for _ in range(200):
        value = rng.uniform(10.0, 500.0)
        assert 10.0 <= value <= 500.0
        assert (value / AMOUNT_QUANTUM).is_integer()
        assert round(value, 2) == value


def test_statement_family_is_29_distinct_statements_covering_six_templates():
    family = ch_statement_family()
    assert len(family) == len(set(family)) == 29
    heads = {sql.split("FROM")[1].split("WHERE")[0].strip() for sql in family[:6]}
    assert len(heads) == 6  # a six-statement prefix covers every join shape


def test_op_counts_scale_with_seconds_and_never_drop_below_the_floor():
    assert scaled(6.5, 12) == 78
    assert scaled(6.5, 0.6, at_least=20) == 20


def test_same_seed_gives_the_same_stream_and_another_seed_another():
    def kinds_and_reads(seed):
        workload = WORKLOADS["ch_cache_pressure"]

        class Ctx:  # the stream only needs the statement list and writes
            statements = ch_statement_family()

            @staticmethod
            def write_round():
                return [lambda: None]

        stream = list(workload.stream(Ctx, 1.0, seed))
        return [(k, p) for k, p in stream if k != "write"]

    assert kinds_and_reads(5) == kinds_and_reads(5)
    assert kinds_and_reads(5) != kinds_and_reads(6)
