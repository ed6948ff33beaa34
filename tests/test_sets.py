import types
import warnings

import numpy as np
import pytest

from hyra.errors import DimensionMismatch, MatrixOverflow
from hyra.ir import Condition, Halfspaces, InitialCondition, LinearConstraint
from hyra.sets import (
    Box,
    Zonotope,
    box_hull,
    center_radius,
    clamp_boxes,
    exp_with_integral,
    hull_zonotope,
    intersect_condition,
    linear_map,
    matrix_exponential,
    minkowski_sum,
    reduce_order,
    translate,
)
from hyra.reach import Segments, _box_inside_condition, _boxes_close, safety_margin
from support import (
    box_contains, box_inside_array, boxes_close_array, intersect_condition_array, sample_zonotope, support_function,
)


def taylor_expm(a, t, terms=60):
    """Raw truncated Taylor series; the independent oracle."""
    a = np.asarray(a, dtype=float) * t
    n = a.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    return acc


def box_octagon_directions(n: int) -> np.ndarray:
    """+-e_i plus all +-e_i +- e_j rows: the box+octagon template family."""
    rows = []
    eye = np.eye(n)
    for i in range(n):
        rows.append(eye[i])
        rows.append(-eye[i])
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    rows.append(si * eye[i] + sj * eye[j])
    return np.array(rows)


def unit_square():
    return Zonotope([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# matrix exponential


def test_expm_of_zero_is_identity():
    assert np.array_equal(matrix_exponential(np.zeros((3, 3)), 1.0), np.eye(3))


def test_expm_nilpotent_closed_form():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exponential(a, 1.0), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(-1.0, 1.0, size=(4, 4))
        got = matrix_exponential(a, 1.0)
        want = taylor_expm(a, 1.0)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_expm_semigroup_and_inverse():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, size=(3, 3))
        s, t = 0.7, 0.9  # ||A||_1 (s+t) stays below 5
        left = matrix_exponential(a, s + t)
        right = matrix_exponential(a, s) @ matrix_exponential(a, t)
        assert np.max(np.abs(left - right)) <= 1e-9
        prod = matrix_exponential(a, 1.0) @ matrix_exponential(a, -1.0)
        assert np.max(np.abs(prod - np.eye(3))) <= 1e-9


def test_expm_overflow_guard():
    with pytest.raises(MatrixOverflow):
        matrix_exponential(np.eye(2) * 2e6, 1.0)


def test_exp_with_integral_matches_quadrature():
    a = np.array([[0.0, 1.0], [-2.0, -0.5]])
    t = 0.3
    _, integral = exp_with_integral(a, t)
    # trapezoid quadrature of e^(A s) over [0, t] as an independent check
    grid = np.linspace(0.0, t, 2001)
    vals = np.array([taylor_expm(a, s) for s in grid])
    quad = np.trapezoid(vals, grid, axis=0)
    assert np.max(np.abs(integral - quad)) <= 1e-8


# ---------------------------------------------------------------------------
# set objects: checked when built from outside, frozen always


def random_zonotope(rng, n, p):
    return Zonotope(rng.normal(size=n), rng.normal(size=(n, p)))


def hull_by_hstack(z1, z2):
    """``hull_zonotope`` with padded copies and three stacked blocks."""
    p = max(z1.order, z2.order)
    g1 = np.hstack([z1.generators, np.zeros((z1.dim, p - z1.order))])
    g2 = np.hstack([z2.generators, np.zeros((z2.dim, p - z2.order))])
    gens = np.hstack([0.5 * (g1 + g2), 0.5 * (z1.center - z2.center)[:, None], 0.5 * (g1 - g2)])
    keep = np.abs(gens).sum(axis=0) > 0.0
    return Zonotope(0.5 * (z1.center + z2.center), gens[:, keep])


def set_operation_results(rng):
    z1, z2 = random_zonotope(rng, 3, 4), random_zonotope(rng, 3, 7)
    return {
        "linear_map": linear_map(rng.normal(size=(2, 3)), z1),
        "translate": translate(z1, rng.normal(size=3)),
        "minkowski_sum": minkowski_sum(z1, z2),
        "hull_zonotope": hull_zonotope(z2, z1),
        "reduce_order": reduce_order(random_zonotope(rng, 3, 12), 5),
        "box_hull": box_hull(z2),
    }


@pytest.mark.parametrize("operation", ["linear_map", "translate", "minkowski_sum", "hull_zonotope",
                                       "reduce_order", "box_hull"])
def test_set_operation_results_are_frozen_and_equal_the_checked_construction(operation):
    rng = np.random.default_rng(61)
    for _ in range(20):
        result = set_operation_results(rng)[operation]
        arrays = (result.lo, result.hi) if isinstance(result, Box) else (result.center, result.generators)
        checked = type(result)(*(a.copy() for a in arrays))
        checked_arrays = (checked.lo, checked.hi) if isinstance(result, Box) else (checked.center, checked.generators)
        for got, want in zip(arrays, checked_arrays):
            assert not got.flags.writeable
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[...] = 0.0


def test_hull_zonotope_equals_the_stacked_blocks_bitwise():
    rng = np.random.default_rng(67)
    for p1, p2 in [(0, 0), (0, 3), (3, 0), (4, 4), (2, 7), (7, 2)]:
        z1, z2 = random_zonotope(rng, 3, p1), random_zonotope(rng, 3, p2)
        # signed zeros and shared columns: x + 0.0 and -0.0 + 0.0 must stay as written
        z1 = Zonotope(z1.center, np.where(rng.uniform(size=(3, p1)) < 0.3, -0.0, z1.generators))
        for a, b in [(z1, z2), (z2, z1), (z1, z1)]:
            got, want = hull_zonotope(a, b), hull_by_hstack(a, b)
            assert got.center.tobytes() == want.center.tobytes()
            assert got.generators.shape == want.generators.shape
            assert got.generators.tobytes() == want.generators.tobytes()


@pytest.mark.parametrize("lo, hi, error", [
    ([0.0, np.nan], [1.0, 1.0], ValueError),
    ([0.0, 0.0], [1.0, np.inf], ValueError),
    ([0.0, 2.0], [1.0, 1.0], ValueError),
    ([0.0, 0.0], [1.0], DimensionMismatch),
    ([[0.0]], [[1.0]], DimensionMismatch),
])
def test_public_box_constructor_rejects_bad_bounds(lo, hi, error):
    with pytest.raises(error):
        Box(lo, hi)


@pytest.mark.parametrize("center, generators, error", [
    ([0.0, np.inf], np.eye(2), ValueError),
    ([0.0, 0.0], [[1.0, np.nan], [0.0, 1.0]], ValueError),
    ([[0.0, 0.0]], np.eye(2), DimensionMismatch),
    ([0.0, 0.0], np.eye(3), DimensionMismatch),
    ([0.0, 0.0], [1.0, 1.0], DimensionMismatch),
])
def test_public_zonotope_constructor_rejects_bad_arrays(center, generators, error):
    with pytest.raises(error):
        Zonotope(center, generators)


def test_public_constructors_hold_read_only_float_arrays():
    box = Box([0, 1], [2, 3])
    z = Zonotope([1, 2], [[1], [0]])
    for array in (box.lo, box.hi, z.center, z.generators):
        assert array.dtype == np.float64 and not array.flags.writeable


def test_box_constructor_leaves_the_callers_arrays_writable():
    lo, hi = np.zeros(2), np.ones(2)
    box = Box(lo, hi)
    lo[0], hi[0] = 0.5, 2.0
    assert box.lo.tolist() == [0.0, 0.0] and box.hi.tolist() == [1.0, 1.0]


def test_zonotope_constructor_leaves_the_callers_arrays_writable():
    center, generators = np.zeros(2), np.eye(2)
    z = Zonotope(center, generators)
    center[0], generators[0, 0] = 0.5, 3.0
    assert z.center.tolist() == [0.0, 0.0] and z.generators.tolist() == np.eye(2).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boxes_and_zonotopes_compare_by_value_and_stay_unhashable(n):
    lo, hi = np.arange(n) - 1.0, np.arange(n) + 0.5
    box, same = Box(lo, hi), Box(lo.tolist(), hi.tolist())
    wider, longer = Box(lo, hi + (np.arange(n) == n - 1)), Box(np.append(lo, 0.0), np.append(hi, 1.0))
    assert box == same and same == box and not box != same
    assert box != wider and wider != box and not box == wider
    assert box != longer and box != object() and box != None  # noqa: E711
    assert Box(np.zeros(n), hi) == Box(-np.zeros(n), hi)  # a signed zero is the same value, as in IR records
    assert same in [wider, box] and box not in [wider, longer]
    z = box.to_zonotope()
    assert z == Zonotope(z.center.tolist(), z.generators.tolist()) and not z != box.to_zonotope()
    assert z != Zonotope(z.center, z.generators[:, :-1]) and z != Zonotope(z.center + 1.0, z.generators)
    assert z in [Zonotope(z.center, 2 * z.generators), box.to_zonotope()] and z != box
    for value in (box, z):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    start = InitialCondition("fall", box)
    assert start == InitialCondition("fall", same) and start != InitialCondition("fall", wider)


def test_linear_map_rejects_a_non_finite_matrix():
    with pytest.raises(ValueError, match="finite"):
        linear_map([[1.0, 0.0], [np.inf, 1.0]], unit_square())


# ---------------------------------------------------------------------------
# zonotope operations


def test_linear_map_identity_and_scaling():
    z = unit_square()
    same = linear_map(np.eye(2), z)
    assert np.array_equal(same.center, z.center)
    assert np.array_equal(same.generators, z.generators)
    doubled = linear_map(2.0 * np.eye(2), z)
    assert np.array_equal(doubled.generators, 2.0 * z.generators)


def test_linear_map_sampling_oracle():
    rng = np.random.default_rng(3)
    z = Zonotope(rng.normal(size=3), rng.normal(size=(3, 5)))
    m = rng.normal(size=(2, 3))
    mapped_box = box_hull(linear_map(m, z))
    for point in sample_zonotope(z, 1000, seed=99):
        assert box_contains(mapped_box, m @ point, slack=1e-9)


def test_linear_map_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linear_map(np.eye(3), unit_square())


def test_minkowski_identity_element():
    z = unit_square()
    summed = minkowski_sum(z, Box([0.0, 0.0], [0.0, 0.0]).to_zonotope())
    assert np.array_equal(summed.center, z.center)
    assert np.array_equal(summed.generators, z.generators)


def test_minkowski_two_segments_make_square():
    seg_x = Zonotope([0.0, 0.0], [[1.0], [0.0]])
    seg_y = Zonotope([0.0, 0.0], [[0.0], [1.0]])
    square = box_hull(minkowski_sum(seg_x, seg_y))
    assert np.array_equal(square.lo, [-1.0, -1.0])
    assert np.array_equal(square.hi, [1.0, 1.0])


def test_minkowski_support_additivity():
    rng = np.random.default_rng(5)
    z1 = Zonotope(rng.normal(size=3), rng.normal(size=(3, 4)))
    z2 = Zonotope(rng.normal(size=3), rng.normal(size=(3, 2)))
    total = minkowski_sum(z1, z2)
    for _ in range(100):
        d = rng.normal(size=3)
        assert support_function(total, d) == pytest.approx(support_function(z1, d) + support_function(z2, d), abs=1e-12)


def test_support_of_unit_square():
    assert support_function(unit_square(), [1.0, 0.0]) == 1.0


def test_to_zonotope_of_a_box_past_the_largest_float_is_finite():
    # 0.5 (hi - lo) overflows on the first box, 0.5 (lo + hi) on the second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wide = Box([-1e308, 0.0], [1e308, 1.0]).to_zonotope()
        far = Box([1e308, 0.0], [1.7e308, 0.0]).to_zonotope()
        z = Box([-1.0, 2.0, 0.5], [1.0, 2.0, 0.75]).to_zonotope()
    assert wide.center.tolist() == [0.0, 0.5] and wide.generators.tolist() == [[1e308, 0.0], [0.0, 0.5]]
    # the halves 0.5e308 and 0.85e308 are exact; their difference rounds below 0.35e308
    assert far.center.tolist() == [1.35e308, 0.0] and far.generators.tolist() == [[0.85e308 - 0.5e308], [0.0]]
    assert np.array_equal(z.center, [0.0, 2.0, 0.625])
    assert np.array_equal(z.generators, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.125]])
    assert not (z.center.flags.writeable or z.generators.flags.writeable)


def random_bounds(rng, size):
    """Finite floats of random sign and binary exponent over the whole float
    range, with zeros, subnormals and +-the largest float among them."""
    big = np.finfo(float).max
    values = rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 2.0, size) * np.exp2(rng.integers(-1074, 1024, size))
    specials = np.array([0.0, -0.0, big, -big, 5e-324, -5e-324, 1e308, -1e308])
    values = np.where(rng.random(size) < 0.2, rng.choice(specials, size), values)
    return np.where(np.isfinite(values), values, big)


def test_center_radius_is_finite_and_the_halved_sum_and_difference_where_those_are():
    rng = np.random.default_rng(29)
    a, b = random_bounds(rng, 200_000), random_bounds(rng, 200_000)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        center, radius = center_radius(lo, hi)
    assert np.isfinite(center).all() and np.isfinite(radius).all() and (radius >= 0.0).all()
    with np.errstate(over="ignore"):
        old_center, old_radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    tiny = np.finfo(float).tiny
    normal = lambda x: (x == 0.0) | (np.abs(x) >= tiny)
    halves_exact = (2.0 * (0.5 * lo) == lo) & (2.0 * (0.5 * hi) == hi)
    same = (np.isfinite(old_center) & np.isfinite(old_radius) & normal(old_center) & normal(old_radius)
            & halves_exact)
    assert 0.5 < same.mean() < 1.0  # both sides of the condition are exercised
    assert np.array_equal(center[same].view(np.int64), old_center[same].view(np.int64))
    assert np.array_equal(radius[same].view(np.int64), old_radius[same].view(np.int64))
    overflowed = ~(np.isfinite(old_center) & np.isfinite(old_radius))
    assert overflowed.any()
    assert np.array_equal(center_radius(-hi, -lo)[0], -center)  # symmetric on a mirrored box


def test_box_hull_contains_samples_exactly():
    rng = np.random.default_rng(17)
    z = Zonotope(rng.normal(size=4), rng.normal(size=(4, 7)))
    box = box_hull(z)
    for point in sample_zonotope(z, 1000, seed=23):
        assert box_contains(box, point)  # no tolerance: interval arithmetic is exact here


def test_hull_zonotope_contains_both_operands():
    rng = np.random.default_rng(31)
    z1 = Zonotope(rng.normal(size=2), rng.normal(size=(2, 3)))
    z2 = Zonotope(rng.normal(size=2), rng.normal(size=(2, 3)))
    hull = hull_zonotope(z1, z2)
    dirs = box_octagon_directions(2)
    for d in dirs:
        assert support_function(hull, d) >= support_function(z1, d) - 1e-12
        assert support_function(hull, d) >= support_function(z2, d) - 1e-12


def test_reduce_order_noop_when_within_cap():
    z = Zonotope(np.zeros(2), np.ones((2, 3)))
    assert reduce_order(z, 3) is z


def test_reduce_order_containment_oracle():
    rng = np.random.default_rng(41)
    directions = rng.normal(size=(16, 3))
    for _ in range(100):
        z = Zonotope(rng.normal(size=3), rng.normal(size=(3, 12)))
        reduced = reduce_order(z, 4)
        assert reduced.order <= max(4, 3)
        for d in directions:
            assert support_function(reduced, d) >= support_function(z, d) - 1e-12


def test_intersect_axis_aligned_clamp():
    box = Box([0.0, 0.0], [2.0, 2.0])
    cond = Condition((LinearConstraint([1.0, 0.0], "<=", 1.0),))
    clamped = intersect_condition(box, cond)
    assert np.array_equal(clamped.lo, [0.0, 0.0])
    assert np.array_equal(clamped.hi, [1.0, 2.0])


def test_intersect_reports_empty():
    box = Box([0.0], [1.0])
    cond = Condition((LinearConstraint([1.0], ">=", 2.0),))
    assert intersect_condition(box, cond) is None


def test_intersect_general_row_tightens_soundly():
    box = Box([0.0, 0.0], [2.0, 2.0])
    cond = Condition((LinearConstraint([1.0, 1.0], "<=", 1.0),))
    clamped = intersect_condition(box, cond)
    assert np.array_equal(clamped.hi, [1.0, 1.0])
    # sound: every point of the true intersection stays inside
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 2.0, size=(500, 2))
    for p in pts[pts.sum(axis=1) <= 1.0]:
        assert box_contains(clamped, p)


def test_intersect_equality_is_two_sided():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    cond = Condition((LinearConstraint([1.0, 0.0], "==", 0.25),))
    clamped = intersect_condition(box, cond)
    assert clamped.lo[0] == clamped.hi[0] == 0.25


def test_strict_relations_treated_as_closed():
    box = Box([0.0], [2.0])
    lt = intersect_condition(box, Condition((LinearConstraint([1.0], "<", 1.0),)))
    assert lt.hi[0] == 1.0


def scalar_clamp(lo, hi, condition, eq_slack=0.0):
    """One box, one constraint row at a time: the oracle for clamp_boxes.

    An equality constraint is read as the slab |c . x - b| <= eq_slack.
    Bounds tighten through numpy's scalar minimum and maximum, whose choice
    between two equal zeros of opposite sign is the one ``clamp_boxes`` makes.
    """
    lo, hi = lo.copy(), hi.copy()
    for con in condition.constraints:
        sign_rows = {"<=": [1.0], "<": [1.0], ">=": [-1.0], ">": [-1.0], "==": [1.0, -1.0]}
        for sign in sign_rows[con.relation]:
            coeffs, bound = sign * con.coeffs, sign * con.bound
            if con.relation == "==":
                bound += eq_slack
            terms_min = [c * lo[i] if c >= 0 else c * hi[i] for i, c in enumerate(coeffs)]
            total_min = np.sum(terms_min)
            if total_min > bound:
                return None
            for i in np.flatnonzero(coeffs):
                limit = (bound - (total_min - terms_min[i])) / coeffs[i]
                if coeffs[i] > 0:
                    hi[i] = np.minimum(hi[i], limit)
                else:
                    lo[i] = np.maximum(lo[i], limit)
                if lo[i] > hi[i]:
                    return None
    return lo, hi


@pytest.mark.parametrize("relations", [("<=", ">="), ("==", "<="), ("<", ">"), ("==", "==")])
def test_clamp_boxes_matches_intersect_condition_row_by_row(relations):
    rng = np.random.default_rng(97)
    n = 3
    kept = emptied = widened_kept = 0
    for _ in range(20):
        center = rng.normal(size=(40, n))
        radius = rng.uniform(0.0, 1.5, size=(40, n))
        lo, hi = center - radius, center + radius
        constraints = []
        for relation in relations:
            coeffs = rng.normal(size=n) * (rng.uniform(size=n) < 0.6)
            constraints.append(LinearConstraint(coeffs, relation, float(rng.normal())))
        cond = Condition(tuple(constraints))
        out_lo, out_hi, ok = clamp_boxes(lo, hi, cond.halfspaces)
        # the equality-slack case: the rows check_safety clamps against
        wide_lo, wide_hi, wide_ok = clamp_boxes(lo, hi, cond.halfspaces.widened(0.3))
        for k in range(len(lo)):
            single = intersect_condition(Box(lo[k], hi[k]), cond)
            oracle = scalar_clamp(lo[k], hi[k], cond)
            assert ok[k] == (single is not None) == (oracle is not None)
            if ok[k]:
                assert np.array_equal(out_lo[k], single.lo) and np.array_equal(out_hi[k], single.hi)
                assert np.array_equal(out_lo[k], oracle[0]) and np.array_equal(out_hi[k], oracle[1])
            wide = scalar_clamp(lo[k], hi[k], cond, eq_slack=0.3)
            assert wide_ok[k] == (wide is not None)
            if wide_ok[k]:
                assert np.array_equal(wide_lo[k], wide[0]) and np.array_equal(wide_hi[k], wide[1])
        kept += int(ok.sum())
        emptied += int((~ok).sum())
        widened_kept += int(wide_ok.sum())
    assert kept > 0 and emptied > 0
    if "==" in relations:
        assert widened_kept > kept


def same_bits(a, b) -> bool:
    """Equal float arrays down to the sign of zero."""
    return np.array_equal(np.asarray(a, dtype=float).view(np.uint64), np.asarray(b, dtype=float).view(np.uint64))


def general_rows(rows):
    """The same rows with no axis recorded: ``clamp_boxes`` runs the n-column formula on each."""
    return rows._replace(axis=(None,) * len(rows.bounds))


def rows_of(*constraints):
    return Condition(tuple(LinearConstraint(c, rel, b) for c, rel, b in constraints))


# Conditions on (x, y, z), each with at least one row of one nonzero coefficient.
COLUMN_CASES = {
    "non-unit-both-signs": rows_of(([3.0, 0.0, 0.0], "<=", 1.0), ([0.0, -2.5, 0.0], "<=", 0.7),
                                   ([0.0, 0.0, 0.3], ">=", -0.2)),
    "two-rows-one-variable": rows_of(([0.0, 4.0, 0.0], ">=", -1.0), ([0.0, 0.7, 0.0], "<=", 0.45)),
    "equality": rows_of(([0.0, 1.5, 0.0], "==", 0.25), ([-3.0, 0.0, 0.0], "==", 0.6)),
    "zero-bounds": rows_of(([1.0, 0.0, 0.0], "<=", 0.0), ([0.0, 1.0, 0.0], ">=", -0.0),
                           ([0.0, 0.0, 2.0], "<=", -0.0), ([0.0, 0.0, -1.0], "<", 0.0)),
    "all-zero-rows": rows_of(([0.0, 0.0, 0.0], "<=", 1.0), ([0.0, 2.0, 0.0], "<=", 0.5),
                             ([0.0, 0.0, 0.0], ">=", -0.0)),
    "mixed": rows_of(([0.5, 0.0, 0.0], "<=", 0.4), ([1.0, 1.0, 0.0], "<=", 0.3),
                     ([0.0, -1.0, 0.0], "<=", 0.2), ([-1.0, 0.0, 2.0], "<=", 1.0),
                     ([0.0, 0.0, 1.0], "<=", 0.6)),
    # a bound that ties the box's own bound as a zero of the other sign: numpy keeps the limit's sign
    "zero-tie": rows_of(([1.0, 0.0, 0.0], "<=", -0.0), ([0.0, 1.0, 0.0], ">=", 0.0)),
}


def column_case_boxes(cond, rng, count: int = 400):
    """Boxes whose bounds are drawn from each column's limits d / c, signed zeros and random values,
    so boxes touch the limits exactly, are flat (lo == hi) and straddle zero."""
    rows = cond.halfspaces
    values = []
    for col in range(3):
        limits = [d / single[1] for single, d in zip(rows.axis, rows.bounds.tolist())
                  if single is not None and single[0] == col]
        limits += (np.asarray(limits) + 0.3).tolist() if limits else []
        values.append(np.array(limits + [0.0, -0.0, 0.1, -0.1] + rng.uniform(-1.5, 1.5, 6).tolist()))
    lo, hi = np.empty((count, 3)), np.empty((count, 3))
    for col, vals in enumerate(values):
        a, b = rng.choice(vals, count), rng.choice(vals, count)
        flat = rng.uniform(size=count) < 0.2
        b[flat] = a[flat]
        lo[:, col], hi[:, col] = np.where(a <= b, a, b), np.where(a <= b, b, a)
    return lo, hi


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
@pytest.mark.parametrize("slack", [None, 0.25], ids=["plain", "widened"])
def test_column_clamp_equals_the_general_formula_and_the_scalar_oracle_bitwise(case, slack):
    cond = COLUMN_CASES[case]
    rows = cond.halfspaces if slack is None else cond.halfspaces.widened(slack)
    assert any(single is not None for single in rows.axis)
    lo, hi = column_case_boxes(cond, np.random.default_rng(sorted(COLUMN_CASES).index(case)))
    out_lo, out_hi, ok = clamp_boxes(lo, hi, rows)
    ref_lo, ref_hi, ref_ok = clamp_boxes(lo, hi, general_rows(rows))
    assert np.array_equal(ok, ref_ok) and same_bits(out_lo, ref_lo) and same_bits(out_hi, ref_hi)
    for k in range(len(lo)):
        oracle = scalar_clamp(lo[k], hi[k], cond, eq_slack=slack or 0.0)
        assert ok[k] == (oracle is not None)
        if ok[k]:
            assert same_bits(out_lo[k], oracle[0]) and same_bits(out_hi[k], oracle[1])
    assert 0 < ok.sum() < len(ok)
    # the cases reach the exact limits and the zeros of both signs
    touched = (out_hi == hi) & (hi != lo)
    assert touched.any() and (np.signbit(out_lo) & (out_lo == 0.0)).any()
    # the one-box decisions, in floats where every row has one variable, against their array forms
    inside = set()
    for k in range(len(lo)):
        box = Box(lo[k], hi[k])
        got, want = intersect_condition(box, cond), intersect_condition_array(box, cond)
        assert (got is None) == (want is None)
        if got is not None:
            assert same_bits(got.lo, want.lo) and same_bits(got.hi, want.hi)
        inside.add(_box_inside_condition(box, cond, slack or 0.0))
        assert _box_inside_condition(box, cond, slack or 0.0) == box_inside_array(box, cond, slack or 0.0)
    assert inside == {True, False}


def segment_table(lo, hi) -> Segments:
    """A made segment table of the boxes (lo[k], hi[k]), one after another in time."""
    times = np.arange(len(lo) + 1) * 0.1
    return Segments(times[:-1], times[1:], lo, hi, np.full(len(lo), "loc", dtype=object), np.zeros(len(lo), int))


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
@pytest.mark.parametrize("eq_slack", [1e-9, 0.25], ids=["plain", "widened"])
def test_safety_margin_of_column_rows_equals_the_general_formula(case, eq_slack):
    cond = COLUMN_CASES[case]
    # safety_margin reads nothing of the forbidden condition but its rows
    general = types.SimpleNamespace(halfspaces=general_rows(cond.halfspaces))
    lo, hi = column_case_boxes(cond, np.random.default_rng(100 + sorted(COLUMN_CASES).index(case)), 200)
    values = {True: [], False: []}
    for k in range(len(lo)):
        box = segment_table(lo[k:k + 1], hi[k:k + 1])
        for column, forbidden in ((True, cond), (False, general)):
            margin, index = safety_margin(box, forbidden, eq_slack)
            assert index == 0 and type(margin) is float
            values[column].append(margin)
    got, want = np.array(values[True]), np.array(values[False])
    assert np.array_equal(got, want, equal_nan=True)  # == reads a zero of either sign as equal
    assert (got > 0).any() and (got < 0).any()
    table = segment_table(lo, hi)
    margin, index = safety_margin(table, cond, eq_slack)
    assert (margin, index) == safety_margin(table, general, eq_slack)
    assert index == int(np.argmin(got)) and got[index] == margin


def test_column_clamp_keeps_a_box_at_the_exact_limit_and_zero_signs():
    rows = rows_of(([3.0], "<=", 1.0), ([-2.0], "<=", -0.0)).halfspaces
    lo = np.array([[1.0 / 3.0], [-0.0], [0.0], [0.0], [0.2]])
    hi = np.array([[1.0 / 3.0], [0.0], [0.0], [1.0], [0.3]])
    out_lo, out_hi, ok = clamp_boxes(lo, hi, rows)
    ref_lo, ref_hi, ref_ok = clamp_boxes(lo, hi, general_rows(rows))
    assert ok.all() and np.array_equal(ok, ref_ok)
    assert same_bits(out_lo, ref_lo) and same_bits(out_hi, ref_hi)
    assert out_hi[0, 0] == 1.0 / 3.0 and out_hi[3, 0] == 1.0 / 3.0 and out_hi[4, 0] == 0.3
    for k in range(len(lo)):
        oracle = scalar_clamp(lo[k], hi[k], rows_of(([3.0], "<=", 1.0), ([-2.0], "<=", -0.0)))
        assert same_bits(out_lo[k], oracle[0]) and same_bits(out_hi[k], oracle[1])


def test_halfspace_axis_marks_the_rows_with_one_nonzero_coefficient():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(1, 5))
        constraints = []
        for _ in range(int(rng.integers(1, 5))):
            coeffs = rng.normal(size=n) * (rng.uniform(size=n) < 0.4)
            coeffs[rng.uniform(size=n) < 0.2] = -0.0
            constraints.append(LinearConstraint(coeffs, str(rng.choice(["<=", ">=", "==", "<"])), rng.normal()))
        rows = Condition(tuple(constraints)).halfspaces
        assert type(rows.axis) is tuple and len(rows.axis) == len(rows.bounds)
        nonzero = rows.coeffs != 0.0
        single = nonzero.sum(axis=1) == 1
        assert [entry is None for entry in rows.axis] == (~single).tolist()
        for entry, coeffs, columns in zip(rows.axis, rows.coeffs, nonzero):
            if entry is not None:
                col = int(columns.argmax())
                assert entry == (col, float(coeffs[col])) and type(entry[0]) is int and type(entry[1]) is float
        assert rows.widened(0.5).axis is rows.axis
        seen |= set(nonzero.sum(axis=1).tolist())
    assert {0, 1, 2} <= seen
    assert Condition().halfspaces.axis == ()


def test_float_clamp_keeps_the_zero_sign_of_the_array_clamp():
    # x in [-1, 0] by x <= -0.0 ends at -0.0, and x in [-0, 1] by x >= 0.0 starts at +0.0, as
    # numpy's minimum and maximum give them; Python's min and max would keep the box's own zero
    for box, cond, want_lo, want_hi in ((Box([-1.0], [0.0]), rows_of(([1.0], "<=", -0.0)), -1.0, -0.0),
                                        (Box([-0.0], [1.0]), rows_of(([1.0], ">=", 0.0)), 0.0, 1.0)):
        got, array = intersect_condition(box, cond), intersect_condition_array(box, cond)
        assert same_bits(got.lo, [want_lo]) and same_bits(got.hi, [want_hi])
        assert same_bits(array.lo, got.lo) and same_bits(array.hi, got.hi)


def test_float_clamp_empties_a_box_past_the_limit_whose_product_rounds_onto_the_bound():
    # 3 x <= 1 holds at the float just past 1/3, since 3 x rounds to 1.0, yet x's bound becomes 1/3 < x
    past = np.nextafter(1.0 / 3.0, 1.0)
    assert 3.0 * past == 1.0
    box, cond = Box([past], [0.5]), rows_of(([3.0], "<=", 1.0))
    assert intersect_condition(box, cond) is None and intersect_condition_array(box, cond) is None


def test_halfspace_axis_is_built_once_as_plain_columns_and_coefficients():
    cond = rows_of(([0.0, -2.0], "==", 1.5), ([1.0, 0.0], "<", -0.0))
    rows = cond.halfspaces
    assert rows.axis == ((1, -2.0), (1, 2.0), (0, 1.0)) and cond.halfspaces is rows
    assert rows.bounds.tolist() == [1.5, -1.5, -0.0]
    assert all(type(i) is int and type(c) is float for i, c in rows.axis)
    assert Condition().halfspaces.axis == ()
    assert rows_of(([1.0, 0.0], "<=", 1.0), ([1.0, 1.0], "<=", 1.0)).halfspaces.axis == ((0, 1.0), None)
    assert rows_of(([0.0, 0.0], "<=", 1.0)).halfspaces.axis == (None,)


def test_boxes_close_equals_the_array_formula():
    # ties, signed zeros, flat boxes and the merge-overflow magnitudes, whose widths pass the float range
    values = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, 2.5, -0.95e308, 0.8e308, 0.9e308, 1e308, 1.5e308, -1.7e308]
    rng = np.random.default_rng(11)
    seen = {True: 0, False: 0}
    overflowed = 0
    for _ in range(3000):
        n = int(rng.integers(1, 4))
        a, b, c, d = (rng.choice(values, n) for _ in range(4))
        flat = rng.uniform(size=(2, n)) < 0.25
        b1 = Box(np.minimum(a, b), np.where(flat[0], np.minimum(a, b), np.maximum(a, b)))
        b2 = Box(np.minimum(c, d), np.where(flat[1], np.minimum(c, d), np.maximum(c, d)))
        close = _boxes_close(b1, b2)
        assert close == boxes_close_array(b1, b2)
        seen[close] += 1
        with np.errstate(over="ignore"):
            overflowed += bool(np.isinf(b1.hi - b1.lo).any())
    assert min(seen.values()) > 100 and overflowed > 100


def test_box_norms_equal_their_array_forms():
    # signed zeros, flat axes and bounds near +-1e308, of boxes given by their bounds and of the
    # hulls of zonotopes, as ``discretize`` reads them. Among equal values the float max keeps
    # the first and numpy's reduction any; the radii differ in sign only at a zero radius of
    # lo = 0.0, hi = -0.0, which center -/+ a radius of absolute values never gives
    values = [0.0, -0.0, 1.0, -2.5, 3e-9, 5e-324, -5e-324, -0.95e308, 0.9e308, 1e308, -1e308, 1.7e308, -1.7e308]
    rng = np.random.default_rng(37)
    boxes = []
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        a, b = rng.choice(values, n), rng.choice(values, n)
        lo, hi = np.where(a <= b, a, b), np.where(a <= b, b, a)
        hi = np.where(rng.uniform(size=n) < 0.25, lo, hi)
        boxes.append(Box(lo, hi))
        generators = rng.choice([0.0, -0.0, 0.5, -3.0, 1e300], (n, int(rng.integers(0, 3))))
        boxes.append(box_hull(Zonotope(rng.choice(values, n), generators)))
    boxes = [box for box in boxes if np.isfinite(box.lo).all() and np.isfinite(box.hi).all()]
    assert len(boxes) > 3000
    for box in boxes:
        assert same_bits(box.sup_norm(), np.max(np.maximum(np.abs(box.lo), np.abs(box.hi))))
        if not ((box.lo == 0.0) & (box.hi == 0.0) & np.signbit(box.hi) & ~np.signbit(box.lo)).any():
            assert same_bits(box.max_radius(), np.max(center_radius(box.lo, box.hi)[1]))
    assert type(boxes[0].sup_norm()) is type(boxes[0].max_radius()) is float


def test_halfspaces_need_every_field():
    rows = rows_of(([1.0, 0.0], "<=", 1.0)).halfspaces
    with pytest.raises(TypeError):
        Halfspaces(rows.coeffs, rows.bounds, rows.equality)


def test_column_clamp_does_not_empty_a_box_whose_row_minimum_overflows():
    # 3 x <= 1 over x in [-1e308, 0]: the n-column formula reads inf - inf there
    rows = rows_of(([3.0, 0.0], "<=", 1.0)).halfspaces
    with np.errstate(over="ignore"):
        lo, hi, ok = clamp_boxes(np.array([[-1e308, 0.0]]), np.array([[0.0, 1.0]]), rows)
    assert ok[0] and lo[0, 0] == -1e308 and hi[0, 0] == 0.0
