"""Library tasks that a benchmark child runs in place of a CLI call.

Each task takes the workload seed and returns `(output, setup_done)`:
`output` is a JSON-able dict that the parent checks against its pins, and
`setup_done` is the `time.monotonic()` reading at which the task had built
its class orbits, before its first verdict.  Calls go through the module
attributes, so that tracing wrappers installed beforehand see them.
"""

from __future__ import annotations

import time

from unirack import catalog, detect, matgroup, rack

# Sp6(2) classes classified from their block-built representatives; the
# W(2)+W(1) class gets only its exhaustive not-D scan, because its not-F
# scan alone runs for about 30 s
SP6Q2_CLASSIFY = ("V(2)+W(1)^2", "V(2)+W(2)", "V(2)^2+W(1)", "V(4)+W(1)")
SP6Q2_REFUTE_D = "W(2)+W(1)"
SL2_SOBER = ((3, "exhaustive"), (4, "exhaustive"), (5, "pairs"),
             (7, "pairs"), (9, "pairs"))


def classify_sp6q2(seed: int):
    """Classify Sp6(2) classes without the group catalog.

    For q = 2 in rank 3 the torus strategies never apply, so a context
    without the Chevalley model and U-members gives the verdicts `classify`
    gives from the catalog."""
    spec = matgroup.group_spec("Sp", 6, 2)
    cat = catalog.GroupCatalog(spec, None, (), [])
    orbits = {}
    for text in SP6Q2_CLASSIFY + (SP6Q2_REFUTE_D,):
        label = catalog.parse_label(text, 2)
        orbits[text] = (label, matgroup.class_orbit(
            catalog.representative(label, 6, 2), spec))
    setup_done = time.monotonic()
    classes = []
    for text in SP6Q2_CLASSIFY:
        label, orbit = orbits[text]
        ctx = catalog.class_context(catalog.ClassEntry(label, 0, orbit, ()),
                                    cat)
        verdict = detect.classify(ctx, seed=seed)
        classes.append({"label": text, "size": orbit.size,
                        **verdict.to_json()})
    label, orbit = orbits[SP6Q2_REFUTE_D]
    cert = detect.refute_d(spec, orbit)
    refuted = {"label": SP6Q2_REFUTE_D, "size": orbit.size,
               "cert_not_d": cert.to_json()}
    return {"classes": classes, "refute_d": refuted}, setup_done


def rack_inner(seed: int):
    """Inner group orders and soberness of fixed class racks.

    The rack computations take no seed: their inputs are fixed classes."""
    classes = []
    cat = catalog.group_catalog(4, 2)
    for entry in cat.by_label(catalog.parse_label("V(4)", 2)):
        classes.append(("Sp4(2)", "V(4)", entry.split_index, cat.spec,
                        entry.orbit))
    spec = matgroup.group_spec("Sp", 4, 3)
    orbit = matgroup.class_orbit(
        catalog.representative(catalog.parse_label("2,2", 3), 4, 3), spec)
    classes.append(("Sp4(3)", "(2^2)", "rep", spec, orbit))
    sl2 = []
    for q, mode in SL2_SOBER:
        spec = matgroup.group_spec("SL", 2, q)
        u = matgroup.Mat(spec.field, 2, (1, 1, 0, 1))
        sl2.append((q, mode, spec, matgroup.class_orbit(u, spec)))
    setup_done = time.monotonic()
    inner = []
    for group, label, split, spec, orbit in classes:
        r = rack.conj_rack(orbit.mats(), spec=spec, orbit=orbit)
        inner.append({"group": group, "label": label, "split": split,
                      "size": r.size, "inn_order": rack.inn_order(r)})
    sober = []
    for q, mode, spec, orbit in sl2:
        r = rack.conj_rack(orbit.mats(), spec=spec, orbit=orbit)
        rep = rack.sober_check(r, mode)
        sober.append({"q": q, "mode": mode, "sober": rep.sober,
                      "subracks": rep.subracks_scanned})
    return {"inner": inner, "sober": sober}, setup_done


TASKS = {"classify-sp6q2": classify_sp6q2, "rack-inner": rack_inner}
