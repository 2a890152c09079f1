"""Value semantics of the package's record types: construction by position
and by keyword with the documented defaults, equality and hash over the
fields, a repr that lists them, immutability, and the validation errors.
Every record type of the package is a `Frozen`."""

from fractions import Fraction as F

import pytest

from kisindim.bounds import DualityData, KTables, RegularityClass
from kisindim.kisin_model import D2LatticeData, KisinInstance, MuTriangle, PhiFunctions, QPoint
from kisindim.perm import AdmissibleSubset, OrdTableau, Permutation
from kisindim.polyhedra import Halfspace, HPolyhedron, VPolyhedron
from kisindim.solver import DimQuery, DimResult

REQUIRED = object()
I23, I25, I35 = KisinInstance(2, 3), KisinInstance(2, 5), KisinInstance(3, 5)
H = Halfspace((1, 0))
PIECES, PIECES2 = ((F(0), F(1)),), ((F(2), F(3)),)
PHI, PHI2 = PhiFunctions(I23, PIECES, PIECES), PhiFunctions(I23, PIECES2, PIECES)

# per type: (field, value, another valid value, default or REQUIRED), in
# positional order
CASES = {
    Halfspace: [("normal", (F(1), F(0)), (F(0), F(1)), REQUIRED),
                ("offset", F(2), F(3), F(0)),
                ("is_eq", False, True, False)],
    HPolyhedron: [("dim", 2, 3, REQUIRED),
                  ("halfspaces", (H,), (), REQUIRED)],
    VPolyhedron: [("dim", 1, 2, REQUIRED),
                  ("vertices", ((F(0),),), ((F(1),),), REQUIRED),
                  ("rays", (), ((F(1),),), REQUIRED),
                  ("lines", (), ((F(1),),), ())],
    Permutation: [("images", (2, 1, 3), (1, 2, 3), REQUIRED)],
    AdmissibleSubset: [("d", 2, 3, REQUIRED),
                       ("cells", frozenset(), frozenset({(1, 2)}), REQUIRED),
                       ("t_set", frozenset(), frozenset({1}), REQUIRED)],
    OrdTableau: [("d", 1, 2, REQUIRED),
                 ("entries", {(1, 1): 1}, {(1, 1): 2}, REQUIRED)],
    KisinInstance: [("d", 3, 4, REQUIRED), ("b", 5, 7, REQUIRED),
                    ("h_zero", False, True, False)],
    QPoint: [("instance", I23, I25, REQUIRED),
             ("values", (F(0), F(1, 3), F(1)), (F(0), F(2, 3), F(1)), REQUIRED)],
    MuTriangle: [("instance", I23, I25, REQUIRED),
                 ("values", (F(3), F(0), F(2)), (F(2), F(1), F(2)), REQUIRED)],
    PhiFunctions: [("instance", I23, I35, REQUIRED),
                   ("phi_pieces", PIECES, PIECES2, REQUIRED),
                   ("psi_pieces", PIECES, PIECES2, REQUIRED)],
    D2LatticeData: [("instance", I23, I35, REQUIRED), ("alpha", 5, 6, REQUIRED),
                    ("gamma", 1, 0, REQUIRED), ("delta", 2, 3, REQUIRED),
                    ("mu1", 16, 17, REQUIRED), ("mu2", -2, -1, REQUIRED),
                    ("profile", PHI, PHI2, REQUIRED)],
    DimQuery: [("instance", KisinInstance(2, 2), I23, REQUIRED),
               ("kind", "le_mu", "mu", REQUIRED),
               ("e", None, 4, None),
               ("mu", (3, 0), (4, 0), None)],
    DimResult: [("status", "exact", "empty", REQUIRED), ("dim", None, 2, None),
                ("interval", None, (1, 2), None),
                ("witness", None, MuTriangle(KisinInstance(1, 2), [F(0)]), None),
                ("nodes", 0, 5, 0), ("checks", None, {"passed": True}, None)],
    DualityData: [("instance", I23, I35, REQUIRED), ("variant", "Q", "Qmax", "Q"),
                  ("form", "g", "f", "g"), ("C_gens", (), ((F(1), F(0)),), ()),
                  ("D_gens", None, (), None)],
    RegularityClass: [("mu", (F(1),), (F(2),), REQUIRED),
                      ("b_regular", True, False, REQUIRED),
                      ("integrally_b_regular", True, False, REQUIRED),
                      ("strongly_integrally_b_regular", False, True, REQUIRED)],
    KTables: [("instance", I23, I35, REQUIRED),
              ("K_rows", (), ((0, 0, 1),), REQUIRED),
              ("K_rays", (), ((1, -1),), REQUIRED),
              ("Kp_rows", (), ((0, 0, 1),), REQUIRED)],
}
# a "le_mu" query needs its mu, so the defaults are checked with it given
MINIMAL_EXTRA = {DimQuery: {"mu": (3, 0)}}
UNHASHABLE = {OrdTableau}  # a dict field, as in a frozen dataclass


def _build(cls, fields, **changes):
    values = [changes.get(name, value) for name, value, _, _ in fields]
    return cls(*values)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_construction_by_position_and_keyword(cls):
    fields = CASES[cls]
    by_position = _build(cls, fields)
    by_keyword = cls(**{name: value for name, value, _, _ in fields})
    for obj in (by_position, by_keyword):
        assert [getattr(obj, name) for name, *_ in fields] == [v for _, v, _, _ in fields]
    assert by_position == by_keyword
    required = [value for _, value, _, default in fields if default is REQUIRED]
    extra = MINIMAL_EXTRA.get(cls, {})
    minimal = cls(*required, **extra)
    for name, value, _, default in fields:
        expected = value if default is REQUIRED or name in extra else default
        assert getattr(minimal, name) == expected
    body = ", ".join(f"{name}={getattr(by_position, name)!r}" for name, *_ in fields)
    assert repr(by_position) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    fields = CASES[cls]
    a, b = _build(cls, fields), _build(cls, fields)
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        # the hash of the field tuple, so sets of records keep their order
        assert hash(a) == hash(tuple(getattr(a, name) for name, *_ in fields))
    for name, _, other, _ in fields:
        changed = _build(cls, fields, **{name: other})
        assert a != changed and not a == changed, name
    assert a != tuple(v for _, v, _, _ in fields)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    fields = CASES[cls]
    obj = _build(cls, fields)
    for name, value, other, _ in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, other)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_validation_errors():
    for d, b in ((0, 2), (-1, 3), (2, 1), (3, 0)):
        with pytest.raises(ValueError):
            KisinInstance(d, b)
    with pytest.raises(ValueError, match="zero normal"):
        Halfspace((0, 0), 1)
    assert Halfspace((0, 0), 0, True).is_eq  # a zero equation is allowed
    with pytest.raises(ValueError, match="unknown query kind"):
        DimQuery(I23, "le_f", e=3)
    with pytest.raises(ValueError, match="outside the triangle"):
        AdmissibleSubset(2, frozenset({(2, 1)}), frozenset())
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError, match="expected 3 values, got 2"):
        QPoint(I23, (0, 1))


def test_constructors_normalise_their_fields():
    # a halfspace stores the primitive integer row of (normal, offset)
    h = Halfspace([F(1, 2), 1], F(3, 2))
    assert h.normal == (1, 2) and type(h.normal) is tuple
    assert all(type(x) is int for x in h.normal + (h.offset,)) and h.offset == 3
    assert Permutation([F(2), 1]).images == (2, 1)
    # a triangle stores its cells as a tuple of fractions in row-major order
    m = MuTriangle(I23, {(2, 2): 1, (1, 1): F(1, 2), (1, 2): 0})
    assert m.values == (F(1, 2), 0, 1) and type(m.values) is tuple
    assert all(type(x) is F for x in m.values)
