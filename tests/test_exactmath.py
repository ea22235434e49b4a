import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import Matrix, dense, solve, sparse
from oracle import sparse_subspace_equal as subspace_equal
from weakhopf.exactmath import (MAX_PRIME, Echelon, PrimeField, QQ, is_prime, null_space,
                                rref)

F5 = PrimeField(5)
F7 = PrimeField(7)


def q(n, d=1):
    return Fraction(n, d)


def qvec(xs):
    return sparse([q(x) for x in xs], QQ)


def columns(field, rows, ncols):
    """The columns of a dense row list, as sparse vectors."""
    return [sparse([row[j] for row in rows], field) for j in range(ncols)]


def rank(field, rows):
    return len(rref(field, [sparse(r, field) for r in rows])[1])


def test_identity_has_trivial_kernel():
    assert null_space(QQ, [qvec([1, 0]), qvec([0, 1])]) == ([], [0, 1])


def test_rank_one_row_kernel():
    basis, _ = null_space(QQ, [qvec([1]), qvec([1])])
    assert len(basis) == 1
    # spans (1, -1)
    assert subspace_equal(QQ, basis, [qvec([1, -1])])


def test_kernel_of_known_rank_product():
    # rank exactly 3: full-column-rank 4x3 times full-row-rank 3x6
    a = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    b = [[1, 0, 0, 1, 2, 0], [0, 1, 0, 1, 0, 3], [0, 0, 1, 0, 1, 1]]
    prod = [[q(sum(a[i][k] * b[k][j] for k in range(3))) for j in range(6)]
            for i in range(4)]
    m = Matrix.from_rows(QQ, prod)
    assert rank(QQ, prod) == 3
    basis, _ = null_space(QQ, columns(QQ, prod, 6))
    assert len(basis) == 3
    for v in basis:
        assert all(x == 0 for x in m.mat_vec(dense(v, 6, QQ)))


def test_zero_row_matrix_kernel_is_everything():
    basis, _ = null_space(QQ, [{}, {}, {}])
    assert len(basis) == 3
    assert subspace_equal(QQ, basis, [qvec([1, 0, 0]), qvec([0, 1, 0]),
                                      qvec([0, 0, 1])])


def test_subspace_equal_scaling():
    assert subspace_equal(QQ, [qvec([1, 0])], [qvec([2, 0])])
    assert not subspace_equal(QQ, [qvec([1, 0])], [qvec([0, 1])])
    assert subspace_equal(QQ, [qvec([1, 1]), qvec([1, 0])],
                          [qvec([0, 1]), qvec([1, 0])])


def test_subspace_dimension_mismatch():
    # only dense vectors have a length to disagree on
    with pytest.raises(ValueError):
        oracle.subspace_equal(QQ, [[q(1), q(0)]], [[q(1), q(0), q(0)]])
    with pytest.raises(ValueError):
        oracle.subspace_contains(QQ, [[q(1), q(0), q(0)]], [q(1), q(0)])


def _span(field, vectors):
    ech = Echelon(field)
    for v in vectors:
        ech.add(v)
    return ech


def test_subspace_contains():
    assert _span(QQ, [qvec([1, 0])]).contains(qvec([3, 0]))
    assert not _span(QQ, [qvec([1, 0])]).contains(qvec([0, 1]))
    # GF(5): 3 * (1, 2) = (3, 6) = (3, 1)
    assert _span(F5, [{0: 1, 1: 2}]).contains({0: 3, 1: 1})


def test_gf5_arithmetic():
    assert F5.inv(2) == 3
    assert F5.parse("7") == 2
    assert F5.parse("1/2") == 3
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


def test_solve():
    m = Matrix.from_rows(QQ, [[q(1), q(1)], [q(0), q(1)]])
    assert m.mat_vec(solve(m, [q(3), q(1)])) == [q(3), q(1)]
    # inconsistent system
    m2 = Matrix.from_rows(QQ, [[q(1), q(1)], [q(1), q(1)]])
    assert solve(m2, [q(0), q(1)]) is None


def test_rational_parse_reduced():
    x = QQ.parse("4/6")
    assert x == Fraction(2, 3)
    assert QQ.show(x) == "2/3"
    assert QQ.show(QQ.parse("-3/9")) == "-1/3"


small_int = st.integers(min_value=-3, max_value=3)


@st.composite
def int_matrix(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.integers(min_value=1, max_value=5))
    return draw(st.lists(st.lists(small_int, min_size=c, max_size=c),
                         min_size=r, max_size=r))


@given(int_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows):
    rows = [[q(x) for x in row] for row in rows]
    ncols = len(rows[0])
    m = Matrix.from_rows(QQ, rows)
    basis, _ = null_space(QQ, columns(QQ, rows, ncols))
    assert rank(QQ, rows) + len(basis) == ncols
    for v in basis:
        assert all(x == 0 for x in m.mat_vec(dense(v, ncols, QQ)))
    # determinism, bit for bit
    assert null_space(QQ, columns(QQ, rows, ncols))[0] == basis


@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=0, max_size=4),
       st.permutations(range(4)))
@settings(max_examples=40, deadline=None)
def test_subspace_equal_is_equivalence(vectors, perm):
    vs = [qvec(v) for v in vectors]
    assert subspace_equal(QQ, vs, vs)
    shuffled = [vs[i] for i in perm if i < len(vs)]
    doubled = [{i: 2 * x for i, x in v.items()} for v in vs]
    assert subspace_equal(QQ, vs, shuffled + doubled)
    assert subspace_equal(QQ, shuffled + doubled, vs)


# -- the sparse core against the dense oracle ---------------------------------


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_core_equals_dense_oracle(field, data):
    rows = [[field.parse(x) for x in row] for row in data.draw(int_matrix())]
    other = [[field.parse(x) for x in row]
             for row in data.draw(st.lists(st.lists(small_int, min_size=len(rows[0]),
                                                    max_size=len(rows[0])), max_size=4))]
    ncols = len(rows[0])
    m = Matrix.from_rows(field, rows)

    # rref: same pivots and the same nonzero rows, entry for entry
    want_rows, want_pivots = oracle.rref(m)
    got_rows, got_pivots = rref(field, [sparse(r, field) for r in rows])
    assert got_pivots == want_pivots
    assert [dense(r, ncols, field) for r in got_rows] == want_rows[:len(want_pivots)]

    # the kernel, one vector per free column, bit for bit
    kernel, pivots = null_space(field, columns(field, rows, ncols))
    assert [dense(v, ncols, field) for v in kernel] == oracle.kernel_basis(m)
    assert pivots == want_pivots
    # row keys only group entries, so rows keyed by tuples give the same
    named = [{("row", i): w for i, w in col.items()} for col in columns(field, rows, ncols)]
    assert null_space(field, named) == (kernel, pivots)

    # Echelon: same answers from add, the same rows, the same membership
    sp, dn = Echelon(field), oracle.Echelon(field, ncols)
    for r in rows:
        assert sp.add(sparse(r, field)) == dn.add(r)
    assert [dense(r, ncols, field) for r in sp.rows] == dn.rows
    assert list(sp.pivots) == dn.pivots
    for r in other:
        assert sp.contains(sparse(r, field)) == dn.contains(r)

    # subspace_equal
    assert subspace_equal(field, [sparse(r, field) for r in rows],
                          [sparse(r, field) for r in other]) \
        == oracle.subspace_equal(field, rows, other)


# -- the blocked null space against one global elimination ---------------------


@st.composite
def block_columns(draw, field):
    """Columns of a random block-diagonal sparse matrix: 1-5 blocks of 1-4
    columns, each block over its own tuple row keys, with empty and
    repeated columns, shuffled."""
    entry = st.sampled_from(["-3", "-2", "-1", "1", "2", "3"]).map(field.parse)
    cols = []
    for b in range(draw(st.integers(1, 5))):
        keys = [("row", b, k) for k in range(draw(st.integers(1, 4)))]
        for _ in range(draw(st.integers(1, 4))):
            support = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
            cols.append({k: draw(entry) for k in support})
    cols += [{}] * draw(st.integers(0, 2))
    cols += [dict(c) for c in draw(st.lists(st.sampled_from(cols), max_size=3))]
    return draw(st.permutations(cols))


def assert_null_space_is_one_block_elimination(field, cols):
    """null_space gives the one-block oracle's pivots and kernel vectors,
    key order inside each vector included."""
    kernel, pivots = null_space(field, cols)
    want_kernel, want_pivots = oracle.null_space(field, cols)
    assert pivots == want_pivots
    assert [list(v.items()) for v in kernel] == [list(v.items()) for v in want_kernel]


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_blocked_null_space_equals_one_block_elimination(field, data):
    assert_null_space_is_one_block_elimination(field, data.draw(block_columns(field)))


def test_null_space_walks_a_block_deeper_than_the_recursion_limit():
    # columns e_j + e_(j+1) link all 3,000 into one block
    n = 3000
    assert n > sys.getrecursionlimit()
    chain = [{j: 1, j + 1: 1} for j in range(n)]
    assert null_space(QQ, chain) == ([], list(range(n)))
    # column 0 plus column 1 is dependent: kernel e_n - e_0 - e_1
    kernel, pivots = null_space(QQ, chain + [{0: 1, 1: 2, 2: 1}])
    assert [list(v.items()) for v in kernel] == [[(n, 1), (0, -1), (1, -1)]]
    assert pivots == list(range(n))


# -- the rationals keep integral values as ints --------------------------------

rationals = st.one_of(st.integers(-30, 30).map(Fraction),
                      st.fractions(min_value=-30, max_value=30, max_denominator=12))


def _assert_stored_like(got, want):
    """got equals the Fraction want, is an int exactly when want is
    integral, and prints as want does."""
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)
    assert QQ.show(got) == QQ.show(want) == str(want)


@given(rationals, rationals, st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_rationals_agree_with_fraction(x, y, k):
    # parse reads the value from unreduced text as well
    a = QQ.parse(f"{x.numerator * k}/{x.denominator * k}")
    b = QQ.parse(str(y))
    _assert_stored_like(a, x)
    _assert_stored_like(b, y)
    _assert_stored_like(QQ.add(a, b), x + y)
    _assert_stored_like(QQ.sub(a, b), x - y)
    _assert_stored_like(QQ.mul(a, b), x * y)
    _assert_stored_like(QQ.neg(a), -x)
    if x != 0:
        _assert_stored_like(QQ.inv(a), 1 / x)


def test_rationals_constants_and_zero_division():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert (QQ.zero, QQ.one) == (0, 1)
    _assert_stored_like(QQ.parse("-6/3"), Fraction(-2))
    _assert_stored_like(QQ.mul(QQ.parse("2/3"), QQ.parse("3/2")), Fraction(1))
    _assert_stored_like(QQ.inv(QQ.parse("-1/4")), Fraction(-4))
    with pytest.raises(ZeroDivisionError):
        QQ.parse("1/0")
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


# -- primality: deterministic Miller-Rabin against trial division --------------


def test_is_prime_agrees_with_trial_division_below_200000():
    assert [n for n in range(200000) if is_prime(n) != oracle.is_prime(n)] == []


@given(st.integers(0, MAX_PRIME - 1))
@settings(max_examples=300, deadline=None)
def test_is_prime_agrees_with_trial_division_below_max_prime(n):
    assert is_prime(n) == oracle.is_prime(n)


# strong pseudoprimes to base 2, to bases 2 and 3, and to bases 2, 3 and 5;
# a Carmichael number; the largest prime square below 2**31; 2**31 - 1 and
# 2**31 - 3.  The bases 2, 3, 5, 7 first fail at 3215031751, above MAX_PRIME.
@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 561, 46337**2,
                               2**31 - 1, 2**31 - 3])
def test_is_prime_on_hard_cases(n):
    assert is_prime(n) == oracle.is_prime(n)
    assert is_prime(n) == (n == 2**31 - 1)


def test_prime_field_range_check_comes_first():
    with pytest.raises(ValueError, match="out of range"):
        PrimeField(MAX_PRIME)
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(46337**2)
    assert PrimeField(2**31 - 1).p == 2**31 - 1
