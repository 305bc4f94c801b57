"""Model export tests: structure, objective round-trip, file formats."""

import itertools
import json
import math

import pytest

from robustz.qip_export import export_ilp, export_qip, read_solution, solution_to_values
from robustz.statistic import stats_from_values

from conftest import all_assignments, make_em, random_instance

FULL_2X2 = {(0, 0): 1.5, (0, 1): -2.0, (1, 0): 3.0, (1, 1): 0.5}
COMBOS = (("min", "case1"), ("min", "case2"), ("max", "case1"), ("max", "case2"))


def objective_from_stats(em, pairs, direction, case):
    stats = stats_from_values(em.effect[p] for p in sorted(pairs))
    coupled = stats.Q - stats.S**2
    if (direction, case) in (("min", "case2"), ("max", "case1")):
        return -coupled
    return coupled


def _expression(lines, label):
    """Text of the ``label:`` expression, continuation lines included."""
    start = next(k for k, line in enumerate(lines) if line.startswith(f" {label}: "))
    end = start + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    return " ".join(lines[start:end])[len(f" {label}: "):]


def _value(tokens, x):
    """Sum of ``sign coef name`` terms, a trailing ``^ 2`` squaring the variable."""
    total, k = 0.0, 0
    while k < len(tokens):
        sign, coef, name = tokens[k:k + 3]
        c = float(coef) if sign == "+" else -float(coef)
        k += 3
        if tokens[k:k + 2] == ["^", "2"]:
            c, k = c * x[name] ** 2, k + 2
        else:
            c *= x[name]
        total += c
    return total


def lp_s_value(lines, x):
    """``s`` solved from the file's own ``sdef`` row at the 0/1 values ``x``, as a solver pins it."""
    sdef, _, rhs = _expression(lines, "sdef").rpartition(" = ")
    assert rhs == "0"
    tokens = sdef.split()
    terms = [(float(coef) if sign == "+" else -float(coef), name)
             for sign, coef, name in zip(tokens[::3], tokens[1::3], tokens[2::3])]
    c_s = sum(c for c, name in terms if name == "s")
    return -sum(c * x[name] for c, name in terms if name != "s") / c_s


def lp_objective_value(lines, x):
    """Value of the ``obj:`` block of LP lines at the 0/1 values ``x`` (by name), ``s`` from ``sdef``."""
    x = dict(x, s=lp_s_value(lines, x))
    linear, _, rest = _expression(lines, "obj").partition("+ [")
    quad, _, tail = rest.partition("] / 2")
    assert tail.strip() == ""
    return _value(linear.split(), x) + _value(quad.split(), x) / 2


def lp_text(spec):
    return "\n".join(spec.lp_lines())


class TestQipStructure:
    def test_counts_on_full_2x2(self):
        spec = export_qip(make_em(FULL_2X2), 2, "min", "case1")
        assert len(spec.variables) == 4
        terms = list(spec.objective_terms())
        assert [p for _, p, q in terms if q is None] == list(spec.variables)
        assert [(p, q) for _, p, q in terms if q is not None] == [("s", "s")]
        text = lp_text(spec)
        assert " * " not in text
        assert " obj: " in text and "+ [ - 2 s ^ 2 ] / 2" in text
        assert " sdef: " in text and " - 1 s = 0" in text
        assert sum(1 for line in text.splitlines() if line.startswith(" row_")) == 2
        assert sum(1 for line in text.splitlines() if line.startswith(" col_")) == 2
        assert " card: " in text
        assert " sign: s >= 0" in text

    def test_long_rows_wrap_at_six_terms(self):
        # a complete 45x45 map: the card row names all 2,025 variables
        em = make_em({(i, j): float((7 * i + j) % 11 - 5) for i in range(45) for j in range(45)})
        specs = [export_qip(em, 45, direction, case) for direction, case in COMBOS]
        specs.append(export_ilp(em, 45, "max", b_l=100.0))
        for spec in specs:
            lines = list(spec.lp_lines())
            for line in lines:
                names = [t for t in line.split() if t == "s" or t.startswith("a_")]
                assert len(names) <= 6, line
            card, _, rhs = _expression(lines, "card").rpartition(" = ")
            assert rhs == "45"
            assert card.split() == [t for p in spec.variables for t in ("+", spec.var_name(p))]
            row_7 = _expression(lines, "row_7").split()
            assert row_7[-2:] == ["<=", "1"] and row_7.count("+") == 45

    def test_s_free_in_every_qip_model(self):
        em = make_em(FULL_2X2)
        for direction, case in COMBOS:
            lines = list(export_qip(em, 2, direction, case).lp_lines())
            k = lines.index("Bounds")
            assert lines[k + 1:k + 3] == [" s free", "Binary"]
        ilp = list(export_ilp(em, 2, "min", b_l=100.0).lp_lines())
        assert "Bounds" not in ilp
        assert not any("s" in line.split() for line in ilp)

    def test_case2_objective_negates_case1(self):
        em = make_em(FULL_2X2)
        c1 = export_qip(em, 2, "min", "case1")
        c2 = export_qip(em, 2, "min", "case2")
        terms1, terms2 = list(c1.objective_terms()), list(c2.objective_terms())
        assert len(terms1) == len(terms2)
        for (a, p1, q1), (b, p2, q2) in zip(terms1, terms2):
            assert (p2, q2) == (p1, q1)
            assert b == -a

    def test_max_case1_text_equals_min_case2_except_sign(self):
        em = make_em(FULL_2X2)
        min2 = lp_text(export_qip(em, 2, "min", "case2"))
        max1 = lp_text(export_qip(em, 2, "max", "case1"))

        def body(text):
            return [line for line in text.splitlines() if not line.startswith("\\")]

        diff = [(a, b) for a, b in zip(body(min2), body(max1)) if a != b]
        assert len(diff) == 1
        a, b = diff[0]
        assert a.startswith(" sign: ") and b.startswith(" sign: ")
        assert a.replace("<=", ">=") == b

    def test_variable_order_deterministic(self):
        spec = export_qip(make_em(FULL_2X2), 2, "min", "case1")
        assert spec.variables == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no eligible"):
            export_qip(make_em({}, 2, 2), 2, "min", "case1")

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            export_qip(make_em(FULL_2X2), 1, "min", "case1")

    def test_unknown_direction_or_case_rejected(self):
        em = make_em(FULL_2X2)
        for direction, case in (("up", "case1"), ("min", "case3")):
            with pytest.raises(ValueError, match="unknown direction/case combination"):
                export_qip(em, 2, direction, case)
        with pytest.raises(ValueError, match="^unknown direction 'up'$"):
            export_ilp(em, 2, "up", 1.0)


class TestIlp:
    def test_linear_objective_only(self):
        spec = export_ilp(make_em(FULL_2X2), 2, "min", b_l=100.0)
        terms = list(spec.objective_terms())
        assert len(terms) == 4
        assert all(q is None for _, _, q in terms)
        text = lp_text(spec)
        assert "^ 2" not in text
        assert " variance_bound: " in text
        assert text.startswith("\\")

    def test_bound_dominance_documented(self):
        spec = export_ilp(make_em(FULL_2X2), 2, "min", b_l=0.01)
        assert "infeasible for any n >= 1" in lp_text(spec)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            export_ilp(make_em(FULL_2X2), 2, "min", b_l=0.0)

    def test_range_hint_in_metadata(self):
        spec = export_ilp(make_em(FULL_2X2), 2, "max", b_l=2e6, bl_range_note=True)
        assert spec.sidecar()["bl_grid_hint"] == [1.12e6, 26.12e6]
        assert "grid range hint" in lp_text(spec)

    def test_variance_bound_checked(self):
        spec = export_ilp(make_em(FULL_2X2), 2, "min", b_l=3.0)
        ok = {(0, 0): 1, (1, 1): 1}      # Q = 2.5 <= 3
        bad = {(0, 1): 1, (1, 0): 1}     # Q = 13 > 3
        assert spec.check_constraints(ok)["variance_bound"]
        assert not spec.check_constraints(bad)["variance_bound"]


class TestRoundTrip:
    def test_objective_matches_direct_expression(self, rng):
        checked = 0
        while checked < 100:
            em, n = random_instance(rng, max_side=4)
            assignments = list(all_assignments(em, n))
            if not assignments:
                continue
            pairs = assignments[rng.randrange(len(assignments))]
            vec = {p: 1.0 for p in pairs}
            for direction, case in COMBOS:
                spec = export_qip(em, n, direction, case)
                want = objective_from_stats(em, pairs, direction, case)
                got = spec.evaluate_objective(vec)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            checked += 1

    def test_rendered_objective_is_coupled_sums(self, rng):
        # read the objective a solver reads: linear terms as written, the
        # bracketed block halved and s pinned by the sdef row, evaluated at a
        # random 0/1 vector
        for _ in range(100):
            em, n = random_instance(rng, max_side=4)
            if em.nnz == 0:
                continue
            for direction, case in COMBOS:
                spec = export_qip(em, n, direction, case)
                x = {spec.var_name(p): rng.randrange(2) for p in spec.variables}
                lines = list(spec.lp_lines())
                got = lp_objective_value(lines, x)
                chosen = [em.effect[p] for p in spec.variables if x[spec.var_name(p)]]
                S, Q = sum(chosen), sum(e * e for e in chosen)
                sign = -1.0 if (direction, case) in (("min", "case2"), ("max", "case1")) else 1.0
                assert got == pytest.approx(sign * (Q - S**2), rel=1e-9, abs=1e-9)
                # the file's sign row on s agrees with the audit's sign flag on S
                s, op = lp_s_value(lines, x), lines[lines.index("Bounds") - 1].split()[-2]
                vec = {p: x[spec.var_name(p)] for p in spec.variables}
                assert (s >= 0 if op == ">=" else s <= 0) == spec.check_constraints(vec)["sign"]

    def test_constraints_track_assignment_invariants(self, rng):
        em = make_em(FULL_2X2)
        spec = export_qip(em, 2, "min", "case1")
        good = {(0, 0): 1.0, (1, 1): 1.0}
        flags = spec.check_constraints(good)
        assert flags["structural"]
        dup_row = {(0, 0): 1.0, (0, 1): 1.0}
        assert not spec.check_constraints(dup_row)["rows"]
        dup_col = {(0, 0): 1.0, (1, 0): 1.0}
        assert not spec.check_constraints(dup_col)["cols"]
        short = {(0, 0): 1.0}
        assert not spec.check_constraints(short)["cardinality"]

    def test_cardinality_is_a_left_to_right_sum(self):
        # in variable order every 2**-53 rounds away against the leading 1.0, so
        # the card row reads exactly 2; a pairwise or compensated sum of the
        # same vector exceeds 2
        spec = export_qip(make_em({(k, k): 1.0 for k in range(16)}), 2, "min", "case1")
        x = [1.0] + [2.0**-53] * 14 + [1.0]
        flags = spec.check_constraints(dict(zip(spec.variables, x)))
        assert flags["cardinality"] and flags["structural"]
        assert math.fsum(x) > 2.0

    def test_constraint_sums_equal_the_loop_reference(self, rng):
        # each row's first pairs get 0.1, 0.34 and 0.56 in random order, whose
        # float sum is 1 or 1 + 2**-52 by order (0.56 + 0.34 + 0.1 > 1), so the
        # flags must equal those of per-pair sums taken in variable order
        for _ in range(200):
            em, n = random_instance(rng, max_side=6)
            if em.nnz == 0:
                continue
            spec = export_qip(em, n, "min", "case1")
            vec = {}
            for _, row in itertools.groupby(spec.variables, key=lambda p: p[0]):
                vec.update(zip(row, rng.sample((0.1, 0.34, 0.56), 3)))
            rows, cols, total = {}, {}, 0.0
            for i, j in spec.variables:
                v = vec.get((i, j), 0.0)
                rows[i] = rows.get(i, 0.0) + v
                cols[j] = cols.get(j, 0.0) + v
                total += v
            flags = spec.check_constraints(vec)
            assert flags["rows"] is all(s <= 1.0 for s in rows.values())
            assert flags["cols"] is all(s <= 1.0 for s in cols.values())
            assert flags["cardinality"] is (total == n)

    def test_sign_constraint_direction(self):
        em = make_em(FULL_2X2)
        pos = {(1, 0): 1.0, (0, 1): 1.0}  # S = 1.0
        spec1 = export_qip(em, 2, "min", "case1")
        spec2 = export_qip(em, 2, "min", "case2")
        assert spec1.check_constraints(pos)["sign"]
        assert not spec2.check_constraints(pos)["sign"]


class TestFiles:
    def test_write_and_sidecar(self, tmp_path):
        spec = export_qip(make_em(FULL_2X2), 2, "min", "case1")
        lp_path, json_path = spec.write(tmp_path / "model")
        assert (tmp_path / "model.lp").read_text() == lp_text(spec) + "\n"
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["schema"] == "robustz-model/2"
        assert len(doc["variables"]) == 4
        assert "s" not in {v["name"] for v in doc["variables"]}
        assert doc["variables"][0]["name"] == "a_0_0"
        assert doc["variables"][0]["effect"] == 1.5

    def test_solution_reader(self, tmp_path):
        spec = export_qip(make_em(FULL_2X2), 2, "min", "case1")
        sol = tmp_path / "model.sol"
        sol.write_text("# objective 3\na_0_0 1\na_0_1 0\na_1_0 0\na_1_1 1\n")
        values = solution_to_values(spec, read_solution(sol))
        assert values == {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
        assert spec.check_constraints(values)["structural"]

    def test_solution_s_line_maps_onto_pairs_only(self, tmp_path):
        em = make_em({(0, 0): -2.0, (0, 1): 1.0, (1, 0): 3.0, (1, 1): 0.5})
        spec = export_qip(em, 2, "min", "case2")
        sol = tmp_path / "model.sol"
        sol.write_text("a_0_0 1\na_0_1 0\na_1_0 0\na_1_1 1\ns -1.5\n")
        values = solution_to_values(spec, read_solution(sol))
        assert values == {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
        assert spec.check_constraints(values)["all"]
        assert spec.evaluate_objective(values) == pytest.approx(1.5 ** 2 - 4.25)

    def test_malformed_solution_line(self, tmp_path):
        sol = tmp_path / "bad.sol"
        sol.write_text("a_0_0 1 extra\n")
        with pytest.raises(ValueError, match="malformed"):
            read_solution(sol)
