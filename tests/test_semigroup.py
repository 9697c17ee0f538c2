import gc
import itertools
import random
import time

import pytest

from toricnash import semigroup
from toricnash.errors import (
    ConeNotStrictlyConvex,
    ConeNotTwoDimensional,
    InvalidGeneratorSet,
    InvariantViolation,
    LatticeNotFull,
    NotMinimal,
    ToricNashError,
    TooFewGenerators,
)
from toricnash.semigroup import (
    LatticePoint,
    check_generates_Z2,
    compute_cone_rays,
    cross,
    primitive,
    semigroup_membership,
    validate,
)

import _support as sup


def points(pairs) -> tuple:
    """pairs as the LatticePoints validate reads, the input of
    compute_cone_rays and check_generates_Z2."""
    return tuple(LatticePoint(u, v) for u, v in pairs)


class TestGeneratorSet:
    # validate reads the points first: the generator set's own errors come
    # before any cone check
    def test_duplicate_rejected(self):
        with pytest.raises(InvalidGeneratorSet,
                           match="^duplicate generator$"):
            validate([(1, 0), (1, 0)])

    def test_origin_rejected(self):
        with pytest.raises(InvalidGeneratorSet,
                           match="^the origin is not a generator$"):
            validate([(1, 0), (0, 0)])

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidGeneratorSet,
                           match=r"^non-integer coordinates: \(0\.5, 1\)$"):
            validate([(1, 0), (0.5, 1)])

    @pytest.mark.parametrize("point", [(1, 2, 3), (1,), 5, None])
    def test_non_pair_rejected(self, point):
        with pytest.raises(InvalidGeneratorSet, match="not a coordinate pair"):
            validate([(1, 0), point])

    def test_checks_in_order(self):
        # a bad point before a duplicate, a duplicate before the origin
        with pytest.raises(InvalidGeneratorSet, match="^non-integer"):
            validate([(0, 0), (1, 0), (1, 0), (1.5, 0)])
        with pytest.raises(InvalidGeneratorSet, match="^duplicate"):
            validate([(0, 0), (1, 0), (1, 0)])


class TestConeRays:
    def test_fixture_a(self):
        rays = compute_cone_rays(points(sup.FIXTURE_A))
        assert rays == ((1, 0), (1, 3))

    def test_fixture_b(self):
        rays = compute_cone_rays(points(sup.FIXTURE_B))
        assert rays == ((1, 0), (0, 1))

    def test_empty_set(self):
        with pytest.raises(InvalidGeneratorSet, match="empty generator set"):
            compute_cone_rays(points([]))

    def test_single_generator(self):
        with pytest.raises(ConeNotTwoDimensional):
            compute_cone_rays(points([(1, 0)]))

    def test_collinear(self):
        with pytest.raises(ConeNotTwoDimensional):
            compute_cone_rays(points([(1, 2), (2, 4), (3, 6)]))

    def test_halfplane(self):
        with pytest.raises(ConeNotStrictlyConvex):
            compute_cone_rays(points([(1, 0), (0, 1), (-1, 0)]))

    def test_full_plane(self):
        with pytest.raises(ConeNotStrictlyConvex):
            compute_cone_rays(points([(1, 0), (-1, 1), (0, -1)]))

    def test_rays_are_primitive(self):
        rays = compute_cone_rays(points([(2, 0), (4, 6), (0, 8)]))
        assert rays == ((1, 0), (0, 1))

    def test_matches_pair_scan(self):
        # every set of 0-4 nonzero points of [-2,2]^2: the same rays or the
        # same error class as the scan over ordered direction pairs
        def outcome(rays_of, gens):
            try:
                return rays_of(gens)
            except ToricNashError as exc:
                return type(exc)

        box = [(u, v) for u in range(-2, 3) for v in range(-2, 3)
               if (u, v) != (0, 0)]
        kinds = set()
        for k in range(5):
            for pts in itertools.combinations(box, k):
                gens = points(pts)
                expected = outcome(sup.pair_scan_cone_rays, gens)
                assert outcome(compute_cone_rays, gens) == expected, pts
                kinds.add(expected if isinstance(expected, type) else tuple)
        assert kinds == {tuple, InvalidGeneratorSet, ConeNotTwoDimensional,
                         ConeNotStrictlyConvex}


class TestClassification:
    def test_fixture_a_blocks(self):
        vs = validate(sup.FIXTURE_A)
        assert (vs.l, vs.m, vs.n) == (1, 2, 1)
        assert vs.permutation == (0, 1, 2, 3)
        # reversed input: edge 1 is input 3, the interior sorts (1, 1) first
        vs = validate(sup.FIXTURE_A[::-1])
        assert (vs.l, vs.m, vs.n) == (1, 2, 1)
        assert vs.permutation == (3, 2, 1, 0)

    def test_fixture_b_blocks(self):
        vs = validate(sup.FIXTURE_B)
        assert (vs.l, vs.m, vs.n) == (2, 1, 2)

    def test_fixture_c_blocks(self):
        vs = validate(sup.FIXTURE_C)
        assert (vs.l, vs.m, vs.n) == (1, 1, 2)


class TestLatticeFullness:
    def test_non_unimodular_pair(self):
        assert not check_generates_Z2(points([(1, 0), (1, 3)]))

    def test_unimodular_pair(self):
        assert check_generates_Z2(points([(1, 0), (1, 1)]))

    def test_index_four(self):
        assert not check_generates_Z2(points([(2, 0), (0, 2)]))

    def test_fixture_b(self):
        assert check_generates_Z2(points(sup.FIXTURE_B))

    def test_matches_brute_gcd(self):
        from math import gcd
        rng = random.Random(2)
        for _ in range(100):
            pts = []
            while len(pts) < 4:
                p = (rng.randint(-4, 4), rng.randint(-4, 4))
                if p != (0, 0) and p not in pts:
                    pts.append(p)
            g = 0
            for i in range(4):
                for j in range(i + 1, 4):
                    g = gcd(g, abs(pts[i][0] * pts[j][1]
                                   - pts[i][1] * pts[j][0]))
            assert check_generates_Z2(points(pts)) == (g == 1)


def validated(points):
    return validate(points)


def assert_minimality_matches_bfs(coords, sizes, cap):
    """The first generator validate finds in the semigroup of the others,
    on every set of the given sizes in the box coords^2 that reaches the
    minimality check, is the first the breadth-first oracle finds; cap
    must bound every partial sum of a representation of a generator."""
    box = [(u, v) for u in coords for v in coords if (u, v) != (0, 0)]
    refused = 0
    for k in sizes:
        for pts in itertools.combinations(box, k):
            try:
                validate(pts)
                found = None
            except NotMinimal as exc:
                found = exc.index
                refused += 1
            except (ConeNotTwoDimensional, ConeNotStrictlyConvex,
                    LatticeNotFull):
                continue
            expected = next((i for i, p in enumerate(pts)
                             if sup.brute_membership(
                                 p, pts[:i] + pts[i + 1:], cap=cap)), None)
            assert found == expected, pts
    assert refused


class TestMembership:
    def test_simple_sum(self):
        assert semigroup_membership((2, 2), validated(sup.FIXTURE_A))

    def test_unreachable(self):
        vs = validated([(1, 1), (1, 2), (1, 3)])
        assert not semigroup_membership((1, 0), vs)

    def test_fixture_b_unreachable(self):
        assert not semigroup_membership((0, 1), validated(sup.FIXTURE_B))

    def test_random_combinations_are_members(self):
        rng = random.Random(7)
        vs = validated(sup.FIXTURE_C)
        pts = vs.points
        for _ in range(30):
            lam = [rng.randint(0, 2) for _ in pts]
            p = (sum(a * g.u for a, g in zip(lam, pts)),
                 sum(a * g.v for a, g in zip(lam, pts)))
            assert semigroup_membership(p, vs)

    def test_against_bfs_oracle(self):
        rng = random.Random(13)
        for pts in (sup.FIXTURE_A, sup.FIXTURE_C, [(2, 1), (1, 1), (1, 3)]):
            vs = validated(pts)
            for _ in range(25):
                p = (rng.randint(-4, 8), rng.randint(-4, 8))
                assert semigroup_membership(p, vs) == \
                    sup.brute_membership(p, pts)

    def test_no_reference_cycle(self):
        # a call leaves nothing for the cyclic garbage collector
        vs = validated(sup.FIXTURE_A)
        gc.collect()
        gc.disable()
        try:
            assert semigroup_membership((3, 5), vs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dual_vector_strictly_positive(self):
        # the search runs in the heights against vs.rays, the rays of the
        # first and last canonical points; the degree weights, the
        # pairings with the dual vector, are the height sums; checked on
        # the fixtures and every valid 3-5 point set of [0, 3]^2
        box = sup.box_semigroups(3, range(3, 6))
        assert len(box) == 1332
        for vs in [validated(pts) for pts in (
                sup.FIXTURE_A, sup.FIXTURE_B, sup.FIXTURE_C)] + box:
            gens = vs.points
            u1, u2 = vs.rays
            assert (u1, u2) == (primitive(gens[0]), primitive(gens[-1]))
            assert vs.heights == tuple((cross(u1, p), cross(p, u2))
                                       for p in gens)
            assert vs.degree_weights == tuple(map(sum, vs.heights))
            assert all(x > 0 for x in vs.degree_weights)

    @pytest.mark.parametrize("point", [(True, False), (2.0, 2.0),
                                       ("a", "b"), (1, 2, 3)])
    def test_point_rule_shared_with_generator_set(self, point):
        # the point rule is the one validate reads generators by: a pair
        # of non-bool ints
        vs = validated(sup.FIXTURE_A)
        with pytest.raises(InvalidGeneratorSet):
            validate([point])
        with pytest.raises(InvalidGeneratorSet):
            semigroup_membership(point, vs)

    def test_origin_is_member(self):
        # validate refuses the origin as a generator, but it is the
        # empty sum, so the semigroup holds it
        assert semigroup_membership((0, 0), validated(sup.FIXTURE_B))

    def test_memo_bounds_minimality_search(self, monkeypatch):
        # the minimality search of this valid set meets the same
        # (k, target) many times: validate makes 13,467 _member calls
        # with the memo and 102,370 without it; the recursion looks the
        # name up in the module, so the patch counts every call
        calls = []
        inner = semigroup._member

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(semigroup, "_member", counted)
        vs = validate([(5, 1), (4, 2), (3, 3), (2, 4), (1, 5),
                                     (251, 49), (253, 0), (0, 51)])
        assert vs.N == 8
        assert len(calls) <= 20_000


class TestValidate:
    def test_fixture_a(self):
        vs = validate(sup.FIXTURE_A)
        assert (vs.N, vs.r) == (4, 2)
        assert (vs.l, vs.m, vs.n) == (1, 2, 1)

    def test_not_minimal(self):
        with pytest.raises(NotMinimal) as exc:
            validate([(1, 0), (2, 0), (0, 1)])
        assert exc.value.point == (2, 0)

    def test_lattice_not_full(self):
        with pytest.raises(LatticeNotFull):
            validate([(2, 0), (0, 2)])

    def test_too_few(self):
        with pytest.raises(TooFewGenerators):
            validate([(1, 0), (0, 1)])

    def test_single_generator_reports_cone_error(self):
        with pytest.raises(ConeNotTwoDimensional):
            validate([(1, 0)])

    def test_reads_lists_and_tuples_alike(self):
        for points in (sup.FIXTURE_A, sup.FIXTURE_B, sup.FIXTURE_C):
            assert validate([list(p) for p in points]) == \
                validate(tuple(map(tuple, points)))

    @pytest.mark.parametrize("points", [
        None, 5, {(1, 0): 1, (0, 1): 1, (1, 1): 1}], ids=["None", "5", "dict"])
    def test_not_a_list_refused(self, points):
        # only a list or tuple is read, before any point: a dict's keys
        # would otherwise be read as generators
        with pytest.raises(InvalidGeneratorSet,
                           match="^generators must be a list or tuple$"):
            validate(points)

    def test_generator_set_record_is_not_points(self):
        # a ValidatedSemigroup is a tuple whose first field, the points,
        # is no point
        with pytest.raises(InvalidGeneratorSet,
                           match="^not a coordinate pair: "):
            validate(validate(sup.FIXTURE_A))

    def test_canonical_order_and_permutation(self):
        vs = validate([(0, 5), (2, 6), (0, 4), (3, 0), (2, 0)])
        pts = [tuple(p) for p in vs.points]
        assert pts == [(2, 0), (3, 0), (2, 6), (0, 4), (0, 5)]
        original = [(0, 5), (2, 6), (0, 4), (3, 0), (2, 0)]
        assert [original[i] for i in vs.permutation] == pts

    def test_blocks_partition(self, population):
        for vs, _ in population:
            idx = (list(vs.x_indices) + list(vs.y_indices)
                   + list(vs.z_indices))
            assert idx == list(range(vs.N))
            assert vs.l >= 1 and vs.n >= 1

    def test_idempotent(self, population):
        for vs, _ in population[:15]:
            again = validate(vs.points)
            assert again.points == vs.points
            assert again.permutation == tuple(range(vs.N))

    def test_order_independent(self):
        rng = random.Random(23)
        for pts in (sup.FIXTURE_A, sup.FIXTURE_B, sup.FIXTURE_C):
            vs0 = validate(pts)
            for _ in range(5):
                shuffled = list(pts)
                rng.shuffle(shuffled)
                vs = validate(shuffled)
                assert vs.points == vs0.points

    def test_verdict_order_independent_for_invalid(self):
        bad = [(1, 0), (2, 0), (0, 1)]
        for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
            with pytest.raises(NotMinimal):
                validate([bad[i] for i in perm])

    def test_degree_weights_positive(self, population):
        for vs, _ in population:
            assert all(w >= 1 for w in vs.degree_weights)

    def test_one_dual_vector(self, population, monkeypatch):
        # one cone computation gives the heights that make the blocks,
        # bound every minimality search and sum to the weights, the same
        # for every input order
        inner = semigroup.compute_cone_rays
        calls = []

        def counted(gens):
            calls.append(gens)
            return inner(gens)

        monkeypatch.setattr(semigroup, "compute_cone_rays", counted)
        for vs, _ in population:
            shuffled = vs.points[::-1]
            calls.clear()
            again = validate(shuffled)
            assert calls == [shuffled]
            assert again.heights == vs.heights

    def test_dual_vector_checked(self, monkeypatch):
        # clockwise rays give every generator a negative height sum; the
        # check is a raise, so it also holds under python -O
        inner = semigroup.compute_cone_rays
        monkeypatch.setattr(semigroup, "compute_cone_rays",
                            lambda gens: inner(gens)[::-1])
        with pytest.raises(InvariantViolation):
            validate(sup.FIXTURE_A)

    def test_empty_edge_is_invariant_violation(self, monkeypatch):
        # both rays come from generator directions; a ray that no
        # generator lies on is a bug, not an invalid input
        inner = semigroup.compute_cone_rays
        monkeypatch.setattr(semigroup, "compute_cone_rays",
                            lambda gens: (LatticePoint(2, 1), inner(gens)[1]))
        with pytest.raises(InvariantViolation):
            validate(sup.FIXTURE_A)

    def test_minimality_search_linear_on_one_edge(self, monkeypatch):
        # (b, b) = b (1, 0) + b (0, 1): for each coefficient of (1, 0) the
        # last generator decides by exact division, so the search makes
        # about b calls instead of b^2 / 2
        b = 300
        inner = semigroup._member
        calls = []

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(semigroup, "_member", counted)
        with pytest.raises(NotMinimal) as exc:
            validate([(1, 0), (0, 1), (b, b)])
        assert exc.value.point == (b, b)
        assert len(calls) <= 2 * b

    @pytest.mark.parametrize("points, blocks", [
        pytest.param([(1, j) for j in range(5)] + [(0, 200), (0, 201)],
                     (1, 4, 2), id="5"),
        pytest.param([(1, j) for j in range(7)] + [(0, 200), (0, 201)],
                     (1, 6, 2), id="7"),
        pytest.param([(1, 0), (1, 1), (0, 10**6), (0, 10**6 + 1)],
                     (1, 1, 2), id="b=10**6"),
        pytest.param([(1, 0), (1, 1), (0, 10**9), (0, 10**9 + 1)],
                     (1, 1, 2), id="b=10**9")])
    def test_long_edge_validates_fast(self, points, blocks):
        # a target outside the cone is refused at once, and the heights
        # cap each coefficient independently of the coordinates' size, so
        # the search stays small
        start = time.perf_counter()
        vs = validate(points)
        assert time.perf_counter() - start < 1
        assert (vs.l, vs.m, vs.n) == blocks

    def test_minimality_matches_bfs_on_box(self):
        # partial sums stay below the target in both coordinates
        assert_minimality_matches_bfs(range(4), range(3, 6), cap=3)

    def test_minimality_matches_bfs_around_origin(self):
        # cones outside the first quadrant; partial sums stay in the
        # parallelogram spanned along the rays from 0 to the target, whose
        # corners reach 8 here: (-2, -2) = 4 (-2, 1) + 6 (1, -1)
        assert_minimality_matches_bfs(range(-2, 3), range(3, 5), cap=8)

    def test_empty_interior_block_accepted(self):
        vs = validate([(2, 0), (3, 0), (0, 1)])
        assert (vs.l, vs.m, vs.n) == (2, 0, 1)
        assert list(vs.y_indices) == []
