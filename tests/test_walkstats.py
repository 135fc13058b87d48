"""Exact combinatorics tests: parity probabilities and the short walk."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lslab.errors import BudgetExceeded
from lslab.walkstats import (
    composite_walk_prob,
    conditional_parity_max,
    line_walk_bruteforce,
    line_walk_endpoint_counts,
    line_walk_table,
    odd_step_reduction_holds,
    parity_prob_bruteforce,
    parity_prob_closed_form,
    parity_prob_enumerated,
    parity_prob_recursion,
    parity_prob_table,
    round_robin_step_counts,
)


class TestParityProbabilities:
    @pytest.mark.parametrize("m", [23, 40])
    def test_tally_budget(self, m):
        # 2^m parity masks over the limit are refused before the tally is built
        with pytest.raises(BudgetExceeded):
            parity_prob_table(m, 2)
        with pytest.raises(BudgetExceeded):
            parity_prob_bruteforce(m, 2, (0,) * m)

    def test_two_bins_two_balls(self):
        assert parity_prob_bruteforce(2, 2, (0, 0)) == Fraction(1, 2)

    def test_zero_balls(self):
        for m in (1, 2, 5):
            assert parity_prob_bruteforce(m, 0, (0,) * m) == 1

    def test_parity_mismatch_is_zero(self):
        assert parity_prob_bruteforce(2, 3, (0, 0)) == 0
        assert parity_prob_bruteforce(3, 2, (1, 0, 0)) == 0

    def test_tally_matches_raw_enumeration(self):
        for m, t in [(2, 5), (3, 4), (4, 3), (5, 2)]:
            for bits in product((0, 1), repeat=m):
                assert parity_prob_bruteforce(m, t, bits) == parity_prob_enumerated(
                    m, t, bits
                )

    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceeded):
            parity_prob_enumerated(10, 30, (0,) * 10)

    def test_closed_form_base_case(self):
        for m in range(2, 13):
            assert parity_prob_closed_form(m, 2) == Fraction(1, m)

    def test_closed_form_examples(self):
        assert parity_prob_closed_form(3, 2) == Fraction(1, 3)
        assert parity_prob_closed_form(2, 4) == Fraction(1, 2)
        assert parity_prob_closed_form(4, 4) == Fraction(5, 32)

    def test_recursion_examples(self):
        assert parity_prob_recursion(4, 4) == Fraction(5, 32)
        assert parity_prob_recursion(2, 4) == Fraction(1, 2)  # m-2 factor vanishes
        assert parity_prob_recursion(5, 2) == Fraction(1, 5)

    def test_odd_t_rejected(self):
        with pytest.raises(ValueError):
            parity_prob_closed_form(3, 3)
        with pytest.raises(ValueError):
            parity_prob_recursion(3, 5)

    def test_three_routes_agree(self):
        for m in range(2, 6):
            for t in range(2, 11, 2):
                a = parity_prob_bruteforce(m, t, (0,) * m)
                assert a == parity_prob_closed_form(m, t)
                assert a == parity_prob_recursion(m, t)

    def test_odd_step_reduction(self):
        assert odd_step_reduction_holds(2, 3)
        assert odd_step_reduction_holds(3, 5)
        with pytest.raises(ValueError):
            odd_step_reduction_holds(2, 2)

    def test_conditional_bound(self):
        # conditioning the first ball away from any bin inflates no parity
        # probability beyond the m/(m-1) factor
        for m in (2, 3, 4):
            for t in range(1, 9):
                table = parity_prob_table(m, t)
                for istar in range(m):
                    cond = parity_prob_table(m, t, excluded_first_bin=istar)
                    for bits, p in table.items():
                        assert cond[bits] <= Fraction(m, m - 1) * p

    def test_permutation_invariance(self):
        for m, t in [(3, 5), (4, 6)]:
            table = parity_prob_table(m, t)
            for bits, p in table.items():
                assert table[tuple(sorted(bits))] == p

    def test_monotone_swap(self):
        # replacing two odd parities by even ones never lowers the
        # probability, and raises it strictly once a third bin can absorb
        # every ball (two bins alone split mass evenly between the classes)
        for m in (2, 3, 4):
            for t in range(2, 9):
                table = parity_prob_table(m, t)
                for bits, p in table.items():
                    ones = [i for i, b in enumerate(bits) if b]
                    if len(ones) < 2:
                        continue
                    swapped = list(bits)
                    swapped[ones[0]] = 0
                    swapped[ones[1]] = 0
                    q = table[tuple(swapped)]
                    assert q >= p
                    feasible = (t - sum(bits)) % 2 == 0 and t >= sum(bits)
                    if feasible and m >= 3:
                        assert q > p

    def test_all_even_nonincreasing(self):
        for m in range(2, 9):
            values = [parity_prob_closed_form(m, t) for t in range(0, 21, 2)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_conditional_envelope_small_steps(self):
        # observed constants for p*(t) <= C * m^(-ceil(t/2)); C is a
        # calibration recorded here, not an asserted literature value
        worst = Fraction(0)
        for m in (3, 4, 5):
            for t in range(1, 11):
                for istar in range(m):
                    p = conditional_parity_max(m, t, istar)
                    scaled = p * Fraction(m) ** ((t + 1) // 2)
                    worst = max(worst, scaled)
        print(f"conditional envelope: sup p * m^ceil(t/2) = {float(worst):.3f}")
        assert worst <= 1000

    def test_conditional_envelope_long_run(self):
        # beyond t = m^2 the all-even probability sits at O(2^-m)
        worst = Fraction(0)
        for m in range(2, 13):
            t = m * m + 2  # first even step count past m^2
            t += t % 2
            p = parity_prob_closed_form(m, t)
            worst = max(worst, p * (1 << m))
        print(f"long-run envelope: sup p * 2^m = {float(worst):.3f}")
        assert worst <= 4


class TestLineWalk:
    def test_two_points_one_step(self):
        table = line_walk_table(2, 1)
        assert table.prob(1, 1, 1) == Fraction(1, 2)
        assert table.prob(1, 1, 2) == Fraction(1, 2)

    def test_zero_steps_identity(self):
        table = line_walk_table(4, 0)
        for i in range(1, 5):
            for j in range(1, 5):
                assert table.prob(0, i, j) == (1 if i == j else 0)

    def test_rows_sum_to_one(self):
        table = line_walk_table(5, 10)
        for t in range(11):
            for i in range(1, 6):
                assert sum(table.prob(t, i, j) for j in range(1, 6)) == 1

    def test_doubly_stochastic(self):
        table = line_walk_table(4, 7)
        for t in range(8):
            for j in range(1, 5):
                assert sum(table.prob(t, i, j) for i in range(1, 5)) == 1

    def test_bruteforce_examples(self):
        assert line_walk_bruteforce(2, 1, 1, 1) == Fraction(1, 2)
        assert line_walk_bruteforce(3, 2, 1, 3) == Fraction(1, 4)
        assert line_walk_bruteforce(5, 0, 3, 3) == 1

    def test_table_matches_bruteforce(self):
        for n in (2, 3, 4):
            table = line_walk_table(n, 8)
            for t in range(9):
                for i in range(1, n + 1):
                    tallies = line_walk_endpoint_counts(n, t, i)
                    for j in range(1, n + 1):
                        assert table.count(t, i, j) == tallies[j]

    def test_endpoint_counts_match_word_by_word_walk(self):
        # the plain enumeration: every t-bit word walked bit by bit (1 = up)
        def walk_every_word(n, t, i):
            tallies = [0] * (n + 1)
            for word in range(1 << t):
                pos = i
                for s in range(t):
                    if (word >> s) & 1:
                        pos = pos + 1 if pos < n else pos
                    else:
                        pos = pos - 1 if pos > 1 else pos
                tallies[pos] += 1
            return tallies

        cases = [(n, t, i) for n in range(2, 9) for t in range(15) for i in range(1, n + 1)]
        # a wide line: the start at either end and in the middle
        cases += [(1000, t, i) for t in (0, 1, 7, 14) for i in (1, 2, 500, 999, 1000)]
        for n, t, i in cases:
            assert line_walk_endpoint_counts(n, t, i) == walk_every_word(n, t, i), (n, t, i)

    @pytest.mark.parametrize("n, t, i", [(1, 2, 1), (3, 2, 0), (3, 2, 4), (3, -1, 1)])
    def test_endpoint_counts_reject_bad_arguments(self, n, t, i):
        # i > n used to be an IndexError; now every bad argument is a ValueError
        with pytest.raises(ValueError):
            line_walk_endpoint_counts(n, t, i)
        with pytest.raises(ValueError):
            line_walk_bruteforce(n, t, i, 1)

    def test_bruteforce_rejects_target_off_the_line(self):
        for j in (0, 4):
            with pytest.raises(ValueError):
                line_walk_bruteforce(3, 2, 1, j)

    def test_bruteforce_budget(self):
        with pytest.raises(BudgetExceeded):
            line_walk_bruteforce(3, 40, 1, 1)

    @pytest.mark.parametrize("n, t_max", [(10**8, 0), (2049, 0), (1000, 4)])
    def test_table_budget(self, n, t_max):
        # n^2 (t_max + 1) over the limit is refused before any row is built
        with pytest.raises(BudgetExceeded):
            line_walk_table(n, t_max)

    def test_streaming_maxima_match_table(self):
        from lslab.walkstats import line_walk_max_counts

        # horizons out to the 4n^2 of the envelope check; the maxima come
        # from the folded cycle walk, so the table is the independent route
        for n in range(2, 13):
            horizon = 4 * n * n
            table = line_walk_table(n, horizon)
            maxima = line_walk_max_counts(n, horizon)
            assert len(maxima) == horizon + 1
            for t in range(horizon + 1):
                assert maxima[t] == max(max(row) for row in table.counts[t])

    @given(st.integers(2, 6), st.integers(0, 9))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_under_reflection(self, n, t):
        # relabeling the line end for end fixes the walk's law
        table = line_walk_table(n, t)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert table.prob(t, i, j) == table.prob(t, n + 1 - i, n + 1 - j)


class TestCompositeWalk:
    def test_single_dimension_reduces_to_line(self):
        table = line_walk_table(4, 6)
        for t in range(7):
            for i in range(1, 5):
                for j in range(1, 5):
                    assert composite_walk_prob(1, 4, t, 0, (i,), (j,)) == table.prob(
                        t, i, j
                    )

    def test_zero_steps(self):
        assert composite_walk_prob(3, 4, 0, 1, (1, 2, 3), (1, 2, 3)) == 1
        assert composite_walk_prob(3, 4, 0, 1, (1, 2, 3), (1, 2, 4)) == 0

    def test_two_dims_two_steps(self):
        table = line_walk_table(5, 1)
        for z1 in product(range(1, 6), repeat=2):
            for z2 in product(range(1, 6), repeat=2):
                expected = table.prob(1, z1[0], z2[0]) * table.prob(1, z1[1], z2[1])
                assert composite_walk_prob(2, 5, 2, 0, z1, z2) == expected

    def test_step_count_schedule(self):
        assert round_robin_step_counts(3, 4, 1) == [1, 2, 1]
        assert round_robin_step_counts(2, 5, 0) == [3, 2]
        assert round_robin_step_counts(4, 0, 2) == [0, 0, 0, 0]

    def test_matches_enumeration(self):
        # enumerate every sign string of the scheduled product walk
        m, n, t, first = 2, 3, 6, 1
        for z1 in [(2, 2), (1, 3)]:
            tallies = {}
            for word in range(1 << t):
                pos = list(z1)
                for s in range(1, t + 1):
                    dim = (first + s - 1) % m
                    if (word >> (s - 1)) & 1:
                        pos[dim] = min(n, pos[dim] + 1)
                    else:
                        pos[dim] = max(1, pos[dim] - 1)
                key = tuple(pos)
                tallies[key] = tallies.get(key, 0) + 1
            for z2, count in tallies.items():
                assert composite_walk_prob(m, n, t, first, z1, z2) == Fraction(
                    count, 1 << t
                )
