"""Critical-level presentations of surfaces carried by a handlebody.

A surface is presented by its critical levels: ``minima`` are disks below
the diagram level, ``ribbons`` are saddle bands, and ``sheets`` are
parallel signed copies of 2-handle cores.  Maxima never occur for the
surfaces this calculus handles and are rejected.  The Euler
characteristic is #minima + #sheets - #ribbons, the homology class is
the signed sheet count vector over the 2-handle basis, and the
self-intersection is evaluated against the host's linking matrix.

Slides drag sheets: a handle slide of ``a`` over ``c`` gives each sheet
over ``a`` a new neighbour sheet over ``c`` joined by a neck ribbon, which
rewrites the class in the slid basis, so the self-intersection and the
Euler characteristic are untouched.  A band slide performs the two bounding
slides with opposite orientations and changes nothing homological.

``capped_sphere`` builds the one sphere piece the calculus tracks and
splits off: a minimum disk capping one core sheet.  ``ribbon_complement``
draws the complement of a ribbon surface in the 4-ball with no crossings
at all, because its through-passes carry all the linking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import intmat, pdcode
from . import handlebody as hb
from .handlebody import Handlebody


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class Disk:
    """A minimum: a disk at the bottom level, optionally abutting a dotted
    circle by a zero-pushoff."""

    id: str
    abuts: str | None = None


@dataclass(frozen=True)
class Sheet:
    """One parallel copy of a 2-handle core, with orientation sign.

    ``cap`` optionally names the minimum disk capping the sheet's
    boundary pushoff; a capped sheet closes into a sphere piece.
    """

    id: str
    on: str
    sign: int = 1
    cap: str | None = None


@dataclass(frozen=True)
class Ribbon:
    """A saddle band joining two critical pieces (disks or sheets).

    ``passes`` records the band's signed trips through minima disks; the
    complement construction turns them into through-passes.
    """

    id: str
    ends: tuple[str, str]
    passes: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class SurfacePresentation:
    name: str
    host: Handlebody
    minima: tuple[Disk, ...] = ()
    ribbons: tuple[Ribbon, ...] = ()
    sheets: tuple[Sheet, ...] = ()
    maxima: int = 0


def validate_surface(s: SurfacePresentation) -> list[str]:
    out = []
    if s.maxima:
        out.append("maxima are unsupported in this calculus")
    ids = [d.id for d in s.minima] + [sh.id for sh in s.sheets] + [r.id for r in s.ribbons]
    if len(set(ids)) != len(ids):
        out.append("duplicate piece ids")
    comp_ids = {c.id for c in s.host.diagram.components}
    framed = {c.id for c in s.host.diagram.components if c.kind == pdcode.FRAMED}
    dotted = {c.id for c in s.host.diagram.components if c.kind == pdcode.DOTTED}
    for d in s.minima:
        if d.abuts is not None and d.abuts not in dotted:
            out.append(f"disk {d.id} abuts unknown dotted circle {d.abuts!r}")
    disk_ids = {d.id for d in s.minima}
    for sh in s.sheets:
        if sh.on not in framed:
            out.append(f"sheet {sh.id} lies over unknown 2-handle {sh.on!r}")
        if not pdcode._is_sign(sh.sign):
            out.append(f"sheet {sh.id} has sign {sh.sign}")
        if sh.cap is not None and sh.cap not in disk_ids:
            out.append(f"sheet {sh.id} capped by unknown disk {sh.cap!r}")
    nodes = {d.id for d in s.minima} | {sh.id for sh in s.sheets}
    for r in s.ribbons:
        for e in r.ends:
            if e not in nodes:
                out.append(f"ribbon {r.id} attached to unknown piece {e!r}")
        for disk, sign in r.passes:
            if disk not in {d.id for d in s.minima} and disk not in comp_ids:
                out.append(f"ribbon {r.id} passes unknown disk {disk!r}")
            if not pdcode._is_sign(sign):
                out.append(f"ribbon {r.id} has pass sign {sign}")
    return out


def euler_characteristic(s: SurfacePresentation) -> int:
    return len(s.minima) + len(s.sheets) - len(s.ribbons)


def is_connected_surface(s: SurfacePresentation) -> bool:
    nodes = [d.id for d in s.minima] + [sh.id for sh in s.sheets]
    pairs = [r.ends for r in s.ribbons]
    pairs += [(sh.id, sh.cap) for sh in s.sheets if sh.cap is not None]
    try:
        return len(pdcode._pieces(nodes, pairs)) <= 1
    except KeyError as err:
        raise SurfaceError(f"a ribbon or cap names unknown piece {err.args[0]!r}") from None


@dataclass(frozen=True)
class HomClass:
    basis: tuple[str, ...]
    vector: tuple[int, ...]

    def __add__(self, other: "HomClass") -> "HomClass":
        if self.basis != other.basis:
            raise SurfaceError("classes over different bases")
        return HomClass(self.basis, tuple(a + b for a, b in zip(self.vector, other.vector)))


def homology_class(s: SurfacePresentation) -> HomClass:
    framed = [c.id for c in s.host.diagram.components if c.kind == pdcode.FRAMED]
    vec = [0] * len(framed)
    for sh in s.sheets:
        vec[framed.index(sh.on)] += sh.sign
    return HomClass(tuple(framed), tuple(vec))


def self_intersection(s: SurfacePresentation) -> int:
    cls = homology_class(s)
    q = pdcode.linking_matrix(s.host.diagram, list(cls.basis))
    return intmat.pairing(q, list(cls.vector), list(cls.vector))


def is_sphere(s: SurfacePresentation) -> bool:
    return euler_characteristic(s) == 2 and is_connected_surface(s) and not s.maxima


def capped_sphere(
    name: str, host: Handlebody, on: str, sign: int = 1, cap: str = "cap"
) -> SurfacePresentation:
    """The sphere piece over 2-handle ``on``: disk ``cap`` capping one core
    sheet of the given sign."""
    return SurfacePresentation(
        name, host, minima=(Disk(cap),), sheets=(Sheet("core", on, sign, cap=cap),)
    )


def _ids(s: SurfacePresentation) -> set[str]:
    return {d.id for d in s.minima} | {sh.id for sh in s.sheets} | {r.id for r in s.ribbons}


# ---------------------------------------------------------------------------
# Slides


def surface_slide(
    s: SurfacePresentation, a: str, c: str, sign: int = 1
) -> SurfacePresentation:
    """Slide 2-handle ``a`` over ``c``, dragging the sheets over ``a``.

    The slid handle is a + sign*c in H2, so the old class e_a reads
    e_a - sign*e_c: each dragged sheet acquires a neighbour sheet over
    ``c`` of the opposite orientation times the slide sign, joined by a
    neck ribbon.  The self-intersection and Euler characteristic are
    unchanged.
    """
    host = hb.slide(s.host, a, c, sign)
    sheets = list(s.sheets)
    ribbons = list(s.ribbons)
    used = _ids(s)
    for sh in s.sheets:
        if sh.on != a:
            continue
        nid = pdcode._fresh(used, "s")
        sheets.append(Sheet(nid, c, -sh.sign * sign))
        ribbons.append(Ribbon(pdcode._fresh(used, "neck"), (sh.id, nid)))
    return replace(s, host=host, sheets=tuple(sheets), ribbons=tuple(ribbons))


def band_slide(s: SurfacePresentation, c: str, ribbon: str) -> SurfacePresentation:
    """Slide the band over 2-handle ``c``: the two bounding slides run with
    opposite orientations, so class and Euler characteristic both survive."""
    r = next((x for x in s.ribbons if x.id == ribbon), None)
    if r is None:
        raise SurfaceError(f"no ribbon {ribbon!r}")
    if s.host.diagram.component(c).kind != pdcode.FRAMED:
        raise SurfaceError(f"{c!r} is not a 2-handle")
    sheets = list(s.sheets)
    ribbons = list(s.ribbons)
    used = _ids(s)
    anchor = r.ends[0]
    for sgn in (1, -1):
        nid = pdcode._fresh(used, "s")
        sheets.append(Sheet(nid, c, sgn))
        ribbons.append(Ribbon(pdcode._fresh(used, "neck"), (anchor, nid)))
        anchor = nid
    return replace(s, sheets=tuple(sheets), ribbons=tuple(ribbons))


# ---------------------------------------------------------------------------
# Tubes, connected-sum records, and cancellation


@dataclass(frozen=True)
class SphereSummand:
    """An embedded connected-sum decomposition F_c = F^c #_arc S."""

    sphere: SurfacePresentation
    arc: str


def split_tube(
    s: SurfacePresentation, c: str, certificate: str | None = None, sign: int = 1
) -> tuple[SurfacePresentation, SphereSummand]:
    """Split a tube over a 0-framed round unknot ``c`` off as a sphere
    summand: remove one sheet of the given sign over ``c`` together with
    its neck ribbon and record the sphere (disk + core copy) it closes
    into.  Needs a complementary-disk certificate (corpus data)."""
    comp = s.host.diagram.component(c)
    if comp.kind != pdcode.FRAMED or comp.framing != 0:
        raise SurfaceError("tubes split only over 0-framed components")
    if certificate is None:
        raise SurfaceError("no complementary disk certificate for the mid-level circle")
    sheet = next((sh for sh in s.sheets if sh.on == c and sh.sign == sign), None)
    if sheet is None:
        raise SurfaceError(f"no sheet of sign {sign} over {c!r} to split")
    necks = [r for r in s.ribbons if sheet.id in r.ends]
    if len(necks) != 1:
        raise SurfaceError(
            f"sheet {sheet.id} has {len(necks)} attached ribbons, need exactly 1"
        )
    neck = necks[0]
    base = replace(
        s,
        sheets=tuple(sh for sh in s.sheets if sh.id != sheet.id),
        ribbons=tuple(r for r in s.ribbons if r.id != neck.id),
    )
    sphere = capped_sphere(f"{s.name}-summand-{c}", s.host, c, sign)
    return base, SphereSummand(sphere, neck.id)


@dataclass(frozen=True)
class SumCertificate:
    status: str  # "granted" | "indeterminate"
    reasons: tuple[str, ...] = ()

    @property
    def granted(self) -> bool:
        return self.status == "granted"


def check_sum_well_defined(
    s1: SurfacePresentation,
    s2: SurfacePresentation,
    host: Handlebody,
    dual_sphere: SurfacePresentation | None = None,
    budget: int = 2000,
) -> SumCertificate:
    """Certify that s1 # s2 does not depend on the guiding arc.

    The rule implements the specific sufficiency argument used here: the
    host must be certified simply connected by Tietze simplification, and
    the summand must either have self-intersection +-1 (its normal circle
    bundle is a Hopf bundle, so the meridian is null-homotopic) or come
    with a dual sphere meeting it algebraically once.  Anything else is
    indeterminate, never refused.
    """
    reasons = []
    trivial, note = hb.pi1_trivial(host, budget)
    if not trivial:
        reasons.append("host fundamental group not certified trivial" + note)
    si = self_intersection(s2)
    if si in (1, -1):
        pass
    elif dual_sphere is not None:
        c2, cd = homology_class(s2), homology_class(dual_sphere)
        q = pdcode.linking_matrix(host.diagram, list(c2.basis))
        pairing = intmat.pairing(q, list(c2.vector), list(cd.vector))
        if pairing not in (1, -1):
            reasons.append(f"dual sphere pairing is {pairing}, not +-1")
    else:
        reasons.append(
            f"summand self-intersection {si} is not +-1 and no dual sphere given"
        )
    if reasons:
        return SumCertificate("indeterminate", tuple(reasons))
    return SumCertificate("granted")


@dataclass(frozen=True)
class SumRecord:
    """(F # S) # S-bar, with both sums certified well-defined."""

    base: SurfacePresentation
    sphere: SurfacePresentation
    sphere_bar: SurfacePresentation
    cert: SumCertificate
    cert_bar: SumCertificate


def cancel_sum(record: SumRecord) -> SurfacePresentation:
    """Cancel a sphere/opposite-pushoff pair of summands, returning the
    base surface.  The class is preserved because the pair's classes sum
    to zero; both well-definedness certificates must be granted."""
    if not (record.cert.granted and record.cert_bar.granted):
        raise SurfaceError("sum well-definedness certificates missing or not granted")
    cs, cb = homology_class(record.sphere), homology_class(record.sphere_bar)
    if cs.vector != tuple(-x for x in cb.vector):
        raise SurfaceError("summand classes are not opposite")
    if not (is_sphere(record.sphere) and is_sphere(record.sphere_bar)):
        raise SurfaceError("summands are not spheres")
    return record.base


# ---------------------------------------------------------------------------
# Ribbon complements


def ribbon_complement(r: SurfacePresentation) -> Handlebody:
    """Handlebody presentation of the complement of a ribbon surface in
    the 4-ball: one dotted circle per minimum, one 0-framed 2-handle per
    ribbon, whose attaching circle enters the first disk, repeats the
    band's recorded passes, and leaves through the second disk.  The
    passes carry all the linking, so the diagram has no crossings.  Two
    ribbons of one id, a minimum named like a handle ``h.<ribbon>``, or a
    pass sign other than +-1 raise SurfaceError."""
    if r.sheets:
        raise SurfaceError("ribbon surfaces have no sheets")
    if r.maxima:
        raise SurfaceError("ribbon surfaces have no maxima")
    if r.host.diagram.components:
        raise SurfaceError("ribbon complements are taken in the 4-ball")
    disks = [d.id for d in r.minima]
    handles = [f"h.{rib.id}" for rib in r.ribbons]
    ids = disks + handles
    if len(set(ids)) != len(ids):
        clash = next(x for x in ids if ids.count(x) > 1)
        raise SurfaceError(f"ribbon complement would repeat component id {clash!r}")
    words = {}
    for hid, rib in zip(handles, r.ribbons):
        a, b = rib.ends
        if a not in disks or b not in disks:
            raise SurfaceError(f"ribbon {rib.id} must join two minima")
        if any(d not in disks for d, _ in rib.passes):
            raise SurfaceError(f"ribbon {rib.id} passes a disk that is not a minimum")
        if not all(pdcode._is_sign(s) for _, s in rib.passes):
            raise SurfaceError(f"ribbon {rib.id} has a pass sign other than +-1")
        words[hid] = [(a, 1), *rib.passes, (b, -1)]
    comps = [(d, pdcode.DOTTED, None) for d in disks] + [(hid, pdcode.FRAMED, 0) for hid in handles]
    return Handlebody(pdcode._from_words(r.name, comps, words, {}))
