"""Critical-level surface presentations: slides, tube splitting,
connected-sum cancellation, and ribbon complements."""

import random
from itertools import product

import pytest
import sympy

from kirby import grouppres, handlebody, pdcode, surface
from kirby.handlebody import Handlebody
from kirby.pdcode import Component, Crossing, Diagram, FRAMED
from kirby.surface import Disk, Ribbon, Sheet, SurfacePresentation

from conftest import Model, model_to_diagram


def host_two_handles(f_a=1, f_c=0, lk=1):
    comps = (Component("a", FRAMED, f_a), Component("c", FRAMED, f_c))
    crossings = tuple(
        Crossing(f"x{i}", 1 if lk > 0 else -1, between=("a", "c"))
        for i in range(2 * abs(lk))
    )
    return Handlebody(Diagram("host", comps, crossings))


def capped_sphere(host, on="a", sign=1):
    s = surface.capped_sphere("s", host, on, sign, cap="d0")
    assert s.minima == (Disk("d0"),) and s.sheets == (Sheet("core", on, sign, cap="d0"),)
    return s


def oracle_square(s):
    cls = surface.homology_class(s)
    q = sympy.Matrix(pdcode.linking_matrix(s.host.diagram, list(cls.basis)))
    v = sympy.Matrix(list(cls.vector))
    return (v.T * q * v)[0, 0]


# -- structure and invariants ----------------------------------------------


def test_validate_surface_accepts_and_rejects():
    s = capped_sphere(host_two_handles())
    assert surface.validate_surface(s) == []
    bad_on = SurfacePresentation("b", s.host, sheets=(Sheet("s0", "zzz"),))
    assert surface.validate_surface(bad_on)
    bad_cap = SurfacePresentation("b", s.host, sheets=(Sheet("s0", "a", cap="nope"),))
    assert surface.validate_surface(bad_cap)
    with_max = SurfacePresentation("b", s.host, maxima=1)
    assert surface.validate_surface(with_max)
    dup = SurfacePresentation(
        "b", s.host, minima=(Disk("p"),), sheets=(Sheet("p", "a"),)
    )
    assert surface.validate_surface(dup)


def test_sphere_invariants():
    s = capped_sphere(host_two_handles(f_a=1))
    assert surface.euler_characteristic(s) == 2
    assert surface.is_connected_surface(s)
    assert surface.is_sphere(s)
    cls = surface.homology_class(s)
    assert dict(zip(cls.basis, cls.vector)) == {"a": 1, "c": 0}
    assert surface.self_intersection(s) == 1 == oracle_square(s)


def test_self_intersection_uses_full_linking_form():
    # class a + c in a host with lk(a,c)=1: square is f_a + 2 + f_c
    host = host_two_handles(f_a=3, f_c=-2, lk=1)
    s = SurfacePresentation(
        "t",
        host,
        minima=(Disk("d0"),),
        sheets=(Sheet("s1", "a", 1, cap="d0"), Sheet("s2", "c", 1)),
        ribbons=(Ribbon("r0", ("s1", "s2")),),
    )
    assert surface.self_intersection(s) == oracle_square(s) == 3


# -- slides ----------------------------------------------------------------


def test_surface_slide_drags_sheets():
    for (f_a, f_c, lk), sign in product([(1, 0, 1), (1, 1, 0), (2, -1, -2), (0, 3, 1)], (1, -1)):
        s = capped_sphere(host_two_handles(f_a=f_a, f_c=f_c, lk=lk))
        out = surface.surface_slide(s, "a", "c", sign)
        assert surface.validate_surface(out) == []
        # the slid handle is a + sign*c, so e_a reads e_a - sign*e_c: the
        # class gains -sign * e_c, and chi and the square are unchanged
        cls = surface.homology_class(out)
        assert dict(zip(cls.basis, cls.vector)) == {"a": 1, "c": -sign}
        assert surface.euler_characteristic(out) == 2
        assert surface.self_intersection(out) == oracle_square(out) == surface.self_intersection(s)
        # the host diagram slid underneath
        assert out.host.diagram != s.host.diagram


def test_surface_slide_without_sheets_only_moves_host():
    host = host_two_handles()
    s = SurfacePresentation("empty", host)
    out = surface.surface_slide(s, "c", "a")
    assert out.sheets == () and out.ribbons == ()
    assert out.host.diagram != host.diagram


def test_band_slide_preserves_class_and_chi():
    s = capped_sphere(host_two_handles())
    slid = surface.surface_slide(s, "a", "c")
    neck = slid.ribbons[0].id
    out = surface.band_slide(slid, "c", neck)
    assert len(out.sheets) == len(slid.sheets) + 2
    assert len(out.ribbons) == len(slid.ribbons) + 2
    assert surface.homology_class(out) == surface.homology_class(slid)
    assert surface.euler_characteristic(out) == surface.euler_characteristic(slid)
    with pytest.raises(surface.SurfaceError):
        surface.band_slide(slid, "c", "no-such-ribbon")


# -- tubes and sums --------------------------------------------------------


def test_split_tube_requires_certificate_and_shape():
    s = capped_sphere(host_two_handles(f_a=1, f_c=0))
    slid = surface.surface_slide(s, "a", "c")
    with pytest.raises(surface.SurfaceError):
        surface.split_tube(slid, "c")  # no certificate
    with pytest.raises(surface.SurfaceError):
        surface.split_tube(slid, "a", certificate="tok")  # framing 1
    base, summand = surface.split_tube(slid, "c", certificate="tok", sign=-1)
    assert surface.is_sphere(summand.sphere)
    total = surface.homology_class(slid)
    parts = surface.homology_class(base) + surface.homology_class(summand.sphere)
    assert parts == total
    assert surface.euler_characteristic(base) == 2


def test_split_tube_needs_single_neck():
    s = capped_sphere(host_two_handles(f_a=1, f_c=0))
    lonely = SurfacePresentation(
        "l", s.host, sheets=(Sheet("s0", "c", 1),)
    )
    with pytest.raises(surface.SurfaceError):
        surface.split_tube(lonely, "c", certificate="tok")


def simply_connected_host():
    return host_two_handles(f_a=1, f_c=0, lk=0)


def test_check_sum_well_defined_paths():
    host = simply_connected_host()
    base = capped_sphere(host, on="a")
    plus_one = capped_sphere(host, on="a")
    cert = surface.check_sum_well_defined(base, plus_one, host)
    assert cert.granted
    zero_sq = capped_sphere(host, on="c")
    cert2 = surface.check_sum_well_defined(base, zero_sq, host)
    assert cert2.status == "indeterminate"
    dual = capped_sphere(host, on="c")  # lk(c,c)=0: pairing 0, still stuck
    cert3 = surface.check_sum_well_defined(base, zero_sq, host, dual_sphere=dual)
    assert cert3.status == "indeterminate"
    linked = host_two_handles(f_a=0, f_c=0, lk=1)
    cert4 = surface.check_sum_well_defined(
        capped_sphere(linked, "a"),
        capped_sphere(linked, "a"),
        linked,
        dual_sphere=capped_sphere(linked, "c"),
    )
    assert cert4.granted


def test_check_sum_requires_trivial_pi1():
    d = Diagram(
        "pi",
        (
            Component("a", FRAMED, 1, edges=("e1",)),
            Component("m", pdcode.DOTTED, through=()),
        ),
    )
    host = Handlebody(d)
    s = capped_sphere(host, on="a")
    cert = surface.check_sum_well_defined(s, s, host)
    assert cert.status == "indeterminate"
    assert any("fundamental group" in r for r in cert.reasons)


def test_check_sum_names_an_exhausted_tietze_budget():
    # pi1 = <m, n | m, n>: trivial after two eliminations
    d = Diagram(
        "twin",
        (
            Component("a", FRAMED, 1, edges=("a1",)),
            Component("m", pdcode.DOTTED, through=(pdcode.Pass("a1"),)),
            Component("b", FRAMED, 0, edges=("b1",)),
            Component("n", pdcode.DOTTED, through=(pdcode.Pass("b1"),)),
        ),
    )
    host = Handlebody(d)
    s = capped_sphere(host, on="a")
    assert surface.check_sum_well_defined(s, s, host, budget=2).granted
    cert = surface.check_sum_well_defined(s, s, host, budget=1)
    assert cert.reasons == (
        "host fundamental group not certified trivial (Tietze budget of 1 steps ran out)",
    )


def test_cancel_sum_checks_certificates_and_classes():
    host = simply_connected_host()
    base = capped_sphere(host, on="c")
    sphere = capped_sphere(host, on="a", sign=1)
    sphere_bar = capped_sphere(host, on="a", sign=-1)
    granted = surface.check_sum_well_defined(base, sphere, host)
    granted_bar = surface.check_sum_well_defined(base, sphere_bar, host)
    rec = surface.SumRecord(base, sphere, sphere_bar, granted, granted_bar)
    assert surface.cancel_sum(rec) is base
    stuck = surface.SumCertificate("indeterminate", ("no",))
    with pytest.raises(surface.SurfaceError):
        surface.cancel_sum(surface.SumRecord(base, sphere, sphere_bar, stuck, granted_bar))
    with pytest.raises(surface.SurfaceError):
        surface.cancel_sum(surface.SumRecord(base, sphere, sphere, granted, granted))


# -- ribbon complements ----------------------------------------------------


def ball():
    return Handlebody(Diagram("ball", ()))


def test_ribbon_complement_of_disk():
    s = SurfacePresentation(
        "disk",
        ball(),
        minima=(Disk("x"), Disk("y")),
        ribbons=(Ribbon("r", ("x", "y")),),
    )
    assert surface.euler_characteristic(s) == 1
    comp = surface.ribbon_complement(s)
    assert handlebody.validate(comp) == []
    rep = handlebody.homology(comp)
    assert str(rep.h1) == "Z"
    g = handlebody.fundamental_group(comp)
    simp = grouppres.tietze_simplify(g, 500)
    assert simp.presentation.rank == 1
    assert simp.presentation.relators == ()


def test_ribbon_complement_records_band_passes():
    s = SurfacePresentation(
        "knotted",
        ball(),
        minima=(Disk("x"), Disk("y")),
        ribbons=(Ribbon("r", ("x", "y"), passes=(("y", 1), ("x", -1))),),
    )
    comp = surface.ribbon_complement(s)
    g = handlebody.fundamental_group(comp)
    # the relator reads off the band word: x y x^-1 y^-1
    assert set(g.generators) == {"x", "y"}
    assert len(g.relators) == 1
    assert grouppres.format_word(g.relators[0], g.generators) == "x y x^-1 y^-1"
    assert str(g.abelianization()) == "Z^2"


def test_ribbon_complement_rejects_bad_input():
    host = host_two_handles()
    with pytest.raises(surface.SurfaceError):
        surface.ribbon_complement(capped_sphere(host))  # has sheets
    s = SurfacePresentation(
        "off-ball", host, minima=(Disk("x"), Disk("y")), ribbons=(Ribbon("r", ("x", "y")),)
    )
    with pytest.raises(surface.SurfaceError):
        surface.ribbon_complement(s)


def test_ribbon_complement_links_each_dot_through_its_passes():
    s = SurfacePresentation(
        "twice",
        ball(),
        minima=(Disk("a"), Disk("b"), Disk("z")),  # "a" < "h.r" < "z"
        ribbons=(Ribbon("r", ("a", "b"), passes=(("z", 1), ("z", 1))),),
    )
    comp = surface.ribbon_complement(s)
    assert comp.diagram.crossings == ()  # the passes carry all the linking
    assert pdcode.linking_matrix(comp.diagram) == [
        [0, 0, 0, 1], [0, 0, 0, -1], [0, 0, 0, 2], [1, -1, 2, 0],
    ]
    stray = SurfacePresentation(
        "stray", ball(), minima=(Disk("x"), Disk("y")),
        ribbons=(Ribbon("r", ("x", "y"), passes=(("w", 1),)),),
    )
    with pytest.raises(surface.SurfaceError, match="not a minimum"):
        surface.ribbon_complement(stray)


def test_ribbon_complement_refuses_clashing_ids():
    twice = SurfacePresentation(
        "twice", ball(), minima=(Disk("x"), Disk("y")),
        ribbons=(Ribbon("r", ("x", "y")), Ribbon("r", ("y", "x"))),
    )
    assert "duplicate piece ids" in surface.validate_surface(twice)
    with pytest.raises(surface.SurfaceError, match="repeat component id 'h.r'"):
        surface.ribbon_complement(twice)
    handle_named = SurfacePresentation(
        "handle-named", ball(), minima=(Disk("x"), Disk("h.r")),
        ribbons=(Ribbon("r", ("x", "h.r")),),
    )
    with pytest.raises(surface.SurfaceError, match="repeat component id 'h.r'"):
        surface.ribbon_complement(handle_named)


@pytest.mark.parametrize("sign", [2, True, 0])
def test_ribbon_complement_refuses_pass_signs_other_than_one(sign):
    s = SurfacePresentation(
        "signed", ball(), minima=(Disk("x"), Disk("y")),
        ribbons=(Ribbon("r", ("x", "y"), passes=(("x", sign),)),),
    )
    assert f"ribbon r has pass sign {sign}" in surface.validate_surface(s)
    with pytest.raises(surface.SurfaceError, match="pass sign other than"):
        surface.ribbon_complement(s)


def model_complement(r):
    """The complement as it was built through the slide model: a linking
    matrix whose dotted entries the pass words cancel again."""
    disks = [d.id for d in r.minima]
    order = list(disks)
    kind = {d: pdcode.DOTTED for d in disks}
    words = {}
    for rib in r.ribbons:
        hid = f"h.{rib.id}"
        order.append(hid)
        kind[hid] = FRAMED
        words[hid] = [(rib.ends[0], 1)] + list(rib.passes) + [(rib.ends[1], -1)]
    q = [[0] * len(order) for _ in order]
    for hid, word in words.items():
        for dot, sg in word:
            i, j = order.index(hid), order.index(dot)
            q[i][j] += sg
            q[j][i] += sg
    return Handlebody(model_to_diagram(Model(order, kind, q, words), r.name))


def test_ribbon_complement_matches_the_slide_model():
    rng = random.Random(1)
    for trial in range(3000):
        disks = [f"d{i}" for i in range(rng.randint(1, 5))]
        ribbons = tuple(
            Ribbon(
                f"r{i}",
                (rng.choice(disks), rng.choice(disks)),
                tuple((rng.choice(disks), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))),
            )
            for i in rng.sample(range(10), rng.randint(0, 5))
        )
        s = SurfacePresentation(f"R{trial}", ball(), tuple(Disk(d) for d in disks), ribbons)
        assert surface.ribbon_complement(s) == model_complement(s), trial
