import hashlib
import json
import pathlib
import re

import pytest

from unirack.cache import Cache, CacheLocked, canonical_json
from unirack.chevalley import ConstructionBug
from unirack.cli import main
from unirack.detect import mat_json
from unirack.ffield import make_field
from unirack.matgroup import GroupError

from helpers import mat_from_ints


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(["--output", str(out), *argv])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_classify_sp42_all_labels(tmp_path):
    code, text = run(tmp_path, "classify", "--family", "sp", "--n", "2", "--q", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["all_match"] and len(rep["rows"]) == 4
    labels = {r["label"] for r in rep["rows"]}
    assert labels == {"V(2)+W(1)", "V(2)^2", "V(4)", "W(2)"}


def test_classify_single_label_pair_split(tmp_path):
    code, text = run(tmp_path, "classify", "--family", "sp", "--n", "2",
                     "--q", "3", "--label", "2,2")
    assert code == 0
    rep = json.loads(text)
    row = rep["rows"][0]
    assert row["expected"] == ["D", "cthulhu"]
    got = sorted(r["verdict"] for r in row["records"])
    assert got == ["D", "cthulhu"]


def test_classify_reports_are_byte_identical(tmp_path):
    code1, text1 = run(tmp_path, "--seed", "5", "classify", "--family", "sp",
                       "--n", "2", "--q", "2")
    code2, text2 = run(tmp_path, "--seed", "5", "classify", "--family", "sp",
                       "--n", "2", "--q", "2")
    assert code1 == code2 == 0
    assert text1 == text2


def test_timings_flag_is_opt_in(tmp_path):
    _, plain = run(tmp_path, "classify", "--family", "sp", "--n", "2", "--q", "2")
    assert "timings" not in json.loads(plain)
    _, timed = run(tmp_path, "--timings", "classify", "--family", "sp",
                   "--n", "2", "--q", "2")
    assert "timings" in json.loads(timed)


def test_table_command_matches(tmp_path):
    code, text = run(tmp_path, "table", "--paper-table", "I",
                     "--family", "sp", "--n", "2", "--q", "2")
    assert code == 0
    assert json.loads(text)["all_match"]


def test_table_sp45_gate(tmp_path):
    """The Sp4(5) table matches the reference with no unknowns: its (4)
    classes of 187,200 elements are sized from centralizer orders, and no
    strategy or scan builds their orbits."""
    code, text = run(tmp_path, "table", "--n", "2", "--q", "5")
    rep = json.loads(text)
    assert (code, rep["all_match"], rep["unknowns"]) == (0, True, 0)


def test_catalog_command(tmp_path):
    code, text = run(tmp_path, "catalog", "--family", "sp", "--n", "2", "--q", "2")
    assert code == 0
    rep = json.loads(text)
    assert len(rep["classes"]) == 5          # four labels, one splitting in two


def test_chevalley_verify_command(tmp_path):
    code, text = run(tmp_path, "chevalley-verify", "--n", "2", "--q", "3")
    assert code == 0
    rep = json.loads(text)
    assert rep["all_ok"] and rep["checks"]["commutation_rule_100"]


def _failing(real, error, **when):
    "`real`, but raising `error` on the calls whose keywords include `when`."
    def call(*args, **kwargs):
        if all(kwargs.get(k) == v for k, v in when.items()):
            raise error("injected")
        return real(*args, **kwargs)
    return call


# (patched name, the check it backs, keywords of the calls to fail, an error
# that the check itself raises)
CHECKS = (("commutator_data", "commutator_expansion_exhaustive",
           {"exhaustive": True}, GroupError),
          ("torus_witness", "torus_witness_sweep", {}, ConstructionBug))


@pytest.mark.parametrize("name,check,when,error", CHECKS,
                         ids=[c[0] for c in CHECKS])
def test_chevalley_verify_lets_coding_errors_through(tmp_path, monkeypatch,
                                                     name, check, when, error):
    "A TypeError in a check is a crash, not a failed check with exit 2."
    from unirack import cli
    monkeypatch.setattr(cli, name, _failing(getattr(cli, name), TypeError,
                                            **when))
    with pytest.raises(TypeError):
        run(tmp_path, "chevalley-verify", "--n", "2", "--q", "3")


@pytest.mark.parametrize("name,check,when,error", CHECKS,
                         ids=[c[0] for c in CHECKS])
def test_chevalley_verify_reports_a_failed_check(tmp_path, monkeypatch,
                                                 name, check, when, error):
    "An error the check raises reads as that check failed, with exit 2."
    from unirack import cli
    monkeypatch.setattr(cli, name, _failing(getattr(cli, name), error, **when))
    code, text = run(tmp_path, "chevalley-verify", "--n", "2", "--q", "3")
    assert code == 2
    rep = json.loads(text)
    assert rep["checks"][check] is False and not rep["all_ok"]


def test_witness_command_gu(tmp_path):
    code, text = run(tmp_path, "witness", "--family", "gu", "--n", "3", "--q", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["result"]["su_class_count"] == 3


def test_gu_witness_report_shows_g_and_eta(tmp_path):
    """The report's own g and eta give g^-1 twist(g) = eta id, the check it
    asserts as g_twist_is_eta_scalar."""
    from unirack.detect import mat_from_json
    from unirack.matgroup import Mat, unitary_twist
    _, text = run(tmp_path, "witness", "--family", "gu", "--n", "3", "--q", "2")
    result = json.loads(text)["result"]
    g = mat_from_json(result["g"])
    eta = result["eta"]["code"]
    assert result["eta"]["text"] == g.field.format_element(eta)
    assert result["checks"]["g_twist_is_eta_scalar"] is True
    assert g.inverse() * unitary_twist(g, 2) == Mat(
        g.field, 3, [eta if i == j else 0 for i in range(3) for j in range(3)])


def test_refute_with_cap_then_resume(tmp_path):
    cache_dir = tmp_path / "cache"
    code1, text1 = run(tmp_path, "--cache-dir", str(cache_dir), "--pair-cap", "10",
                       "refute", "--kind", "d", "--family", "sp", "--n", "2",
                       "--q", "2", "--label", "V(2)^2")
    assert code1 == 3                         # budget exhausted, state saved
    rep1 = json.loads(text1)
    assert not rep1["results"][0]["complete"]
    code2, text2 = run(tmp_path, "--cache-dir", str(cache_dir),
                       "refute", "--kind", "d", "--family", "sp", "--n", "2",
                       "--q", "2", "--label", "V(2)^2")
    assert code2 == 0
    rep2 = json.loads(text2)
    assert rep2["results"][0]["complete"]
    assert rep2["results"][0]["verdict_basis"] == "exhaustive"
    # steady state: a rerun serves the finished certificate from the cache
    code3, text3 = run(tmp_path, "--cache-dir", str(cache_dir),
                       "refute", "--kind", "d", "--family", "sp", "--n", "2",
                       "--q", "2", "--label", "V(2)^2")
    assert code3 == 0 and json.loads(text3)["results"][0].get("cached")


def test_capped_resume_makes_progress(tmp_path):
    "The pair cap bounds one run's pairs, so each rerun with it goes on."
    argv = ["--cache-dir", str(tmp_path / "cache"), "--pair-cap", "20",
            "refute", "--kind", "d", "--n", "2", "--q", "2", "--label", "V(2)^2"]
    got = []
    for _ in range(3):
        code, text = run(tmp_path, *argv)
        cert = json.loads(text)["results"][0]
        got.append((code, cert["stats"]["pairs"], cert["complete"]))
    assert got == [(3, 20, False), (3, 40, False), (0, 44, True)]
    assert cert["verdict_basis"] == "exhaustive"


def test_capped_scan_writes_its_partial_entry_once(tmp_path, monkeypatch):
    "A not-D scan that stops at the pair cap stores its resume state once."
    puts, put = [], Cache.put

    def counted(self, key, value):
        puts.append(value)
        return put(self, key, value)

    monkeypatch.setattr(Cache, "put", counted)
    code, _ = run(tmp_path, "--cache-dir", str(tmp_path / "cache"),
                  "--pair-cap", "10", "refute", "--kind", "d", "--n", "2",
                  "--q", "2", "--label", "V(2)^2")
    assert code == 3
    assert [v["final"] for v in puts] == [False]
    assert puts[0]["state"]["next_index"] == 11


@pytest.mark.parametrize("tamper", ["unknown-keys", "next-index-past-pairs"])
def test_tampered_resume_state_reads_as_a_miss(tmp_path, tamper):
    """A partial entry whose state breaks the scan's invariants is not
    resumed: the scan starts from 0, certifies all 44 pairs of the class,
    and its final entry overwrites the partial one."""
    cache_dir = tmp_path / "cache"
    argv = ["refute", "--kind", "d", "--n", "2", "--q", "2", "--label", "V(2)^2"]
    code, _ = run(tmp_path, "--cache-dir", str(cache_dir), "--pair-cap", "10",
                  *argv)
    assert code == 3
    (path,) = cache_dir.glob("*.json")
    entry = json.loads(path.read_text())
    if tamper == "unknown-keys":
        entry["value"]["state"] = {"bogus": 1}
    else:
        assert entry["value"]["state"]["next_index"] == 11
        entry["value"]["state"]["next_index"] = 45
    path.write_text(canonical_json(entry))
    code, text = run(tmp_path, "--cache-dir", str(cache_dir), *argv)
    cert = json.loads(text)["results"][0]
    assert (code, cert["complete"], cert["stats"]["pairs"]) == (0, True, 44)
    assert cert["verdict_basis"] == "exhaustive" and "cached" not in cert
    assert json.loads(path.read_text())["value"]["final"]


def test_refute_f_ignores_a_stale_partial_entry(tmp_path):
    """The not-F scan runs to the end every time: a non-final entry under
    its key neither adds its stats nor stops the scan."""
    cache_dir = tmp_path / "cache"
    stats = {"class_size": 45, "row_edges": 8, "pair_tests": 72,
             "pair_level_cliques": 0, "joint_tests": 0,
             "triple_pruned_edges": 0}
    c = Cache(cache_dir)
    key = c.key({"op": "refute_f", "group": "Sp4(2)", "label": "V(2)^2",
                 "split": 0, "caps": {"orbit": 10**6}, "seed": 0})
    c.put(key, {"final": False, "state": {"stats": stats}})
    code, text = run(tmp_path, "--cache-dir", str(cache_dir), "refute",
                     "--kind", "f", "--n", "2", "--q", "2", "--label", "V(2)^2")
    assert code == 0
    result = json.loads(text)["results"][0]
    assert result["complete"] and result["stats"] == stats
    assert c.get(key)["final"]


def test_refute_f_cache_key_ignores_the_pair_cap(tmp_path):
    "The pair cap bounds the not-D scan only, so the not-F key leaves it out."
    cache_dir = tmp_path / "cache"
    argv = ["refute", "--kind", "f", "--n", "2", "--q", "2", "--label", "V(2)^2"]
    code1, text1 = run(tmp_path, "--cache-dir", str(cache_dir),
                       "--pair-cap", "10", *argv)
    code2, text2 = run(tmp_path, "--cache-dir", str(cache_dir), *argv)
    assert code1 == code2 == 0
    first, second = (json.loads(t)["results"][0] for t in (text1, text2))
    assert "cached" not in first and second.pop("cached") is True
    assert second == first
    assert len(list(cache_dir.glob("*.json"))) == 1


def test_refute_f_scans_the_whole_class_under_an_orbit_cap(tmp_path):
    "The orbit cap bounds the orbits the scan builds, not the class it scans."
    code, text = run(tmp_path, "--orbit-cap", "5", "refute", "--kind", "f",
                     "--n", "2", "--q", "2", "--label", "V(2)^2")
    assert code == 0
    assert json.loads(text)["results"][0]["stats"]["class_size"] == 45


def test_small_orbit_cap_leaves_the_not_f_scan_whole(tmp_path):
    """Under an orbit cap of 2 the not-F scan of the 45-element Sp4(2)
    V(2)^2 class still certifies: its index orbits never outgrow the
    class, so the cap does not bound them."""
    code, text = run(tmp_path, "--orbit-cap", "2", "refute", "--kind", "f",
                     "--n", "2", "--q", "2", "--label", "V(2)^2")
    cert = json.loads(text)["results"][0]
    assert (code, cert["kind"], cert["complete"]) == (0, "not_F", True)


def test_small_orbit_cap_still_gives_cthulhu(tmp_path):
    """Under an orbit cap of 2 the searches find nothing, and both scans of
    the V(2)^2 class run whole, so the class is cthulhu, as uncapped."""
    code, text = run(tmp_path, "--orbit-cap", "2", "classify", "--n", "2",
                     "--q", "2", "--label", "V(2)^2")
    rec = json.loads(text)["rows"][0]["records"][0]
    assert (code, rec["verdict"], rec["verdict_basis"]) \
        == (0, "cthulhu", ["exhaustive", "necessary-condition"])
    assert rec["cert_not_d"]["stats"]["pairs"] == 44


def test_cache_of_an_older_artifact_version_is_recomputed(tmp_path,
                                                          monkeypatch):
    """An entry written under an older artifact version is not served: its
    (label, split) may name another class now."""
    from unirack import cache
    argv = ("--cache-dir", str(tmp_path / "c"), "table", "--n", "2",
            "--q", "3")
    monkeypatch.setattr(cache, "ARTIFACT_VERSION", "0.1.0")
    assert run(tmp_path, *argv)[0] == 0
    assert len(list((tmp_path / "c").glob("*.json"))) == 6
    monkeypatch.undo()
    code, text = run(tmp_path, *argv)
    records = [r for row in json.loads(text)["rows"] for r in row["records"]]
    assert code == 0 and len(records) == 6
    assert not any(r.get("cached") for r in records)
    code, text = run(tmp_path, *argv)
    records = [r for row in json.loads(text)["rows"] for r in row["records"]]
    assert all(r.get("cached") for r in records)


def test_resume_state_key_depends_on_caps(tmp_path):
    c = Cache(tmp_path / "c")
    k1 = c.key({"op": "refute_d", "caps": {"orbit": 10}})
    k2 = c.key({"op": "refute_d", "caps": {"orbit": 20}})
    assert k1 != k2


def test_uncapped_refute_d_resumes_a_capped_entry(tmp_path, monkeypatch):
    """The not-D key leaves the pair cap out: an uncapped run resumes where
    a capped run stopped, and its final entry replaces the partial one."""
    from unirack import detect
    resumed = []
    refute_d = detect.refute_d

    def recording(*args, resume=None, **kwargs):
        resumed.append(resume and resume["next_index"])
        return refute_d(*args, resume=resume, **kwargs)

    monkeypatch.setattr(detect, "refute_d", recording)
    cache_dir = tmp_path / "cache"
    argv = ["refute", "--kind", "d", "--n", "2", "--q", "3", "--label", "2,2",
            "--split", "0"]
    code1, text1 = run(tmp_path, "--cache-dir", str(cache_dir),
                       "--pair-cap", "100", *argv)
    code2, text2 = run(tmp_path, "--cache-dir", str(cache_dir), *argv)
    code3, text3 = run(tmp_path, *argv)                 # no cache
    first, second, fresh = (json.loads(t)["results"][0]
                            for t in (text1, text2, text3))
    assert (code1, first["complete"], first["stats"]["pairs"]) == (3, False, 100)
    assert (code2, second["complete"], second["stats"]["pairs"]) == (0, True, 239)
    assert second["verdict_basis"] == "exhaustive" and "cached" not in second
    assert resumed == [None, 101, None]
    assert len(list(cache_dir.glob("*.json"))) == 1
    assert code3 == 0 and second == fresh


def test_uncapped_classify_resumes_a_capped_entry(tmp_path):
    """The classify key leaves the pair cap out as well: the uncapped run
    finishes the capped run's entry, and one entry is left on disk."""
    cache_dir = tmp_path / "cache"
    argv = ["classify", "--n", "2", "--q", "2", "--label", "V(2)^2"]
    code1, _ = run(tmp_path, "--cache-dir", str(cache_dir), "--pair-cap", "20", *argv)
    code2, second = run(tmp_path, "--cache-dir", str(cache_dir), *argv)
    code3, fresh = run(tmp_path, *argv)                 # no cache
    assert (code1, code2, code3) == (3, 0, 0)
    assert len(list(cache_dir.glob("*.json"))) == 1
    assert second == fresh


def _record_class_orbits(monkeypatch):
    "The sizes of the class orbits built from here on, through every binding."
    from unirack import catalog, detect, matgroup, rack
    sizes = []
    class_orbit = matgroup.class_orbit

    def recording(*args, **kwargs):
        orbit = class_orbit(*args, **kwargs)
        sizes.append(orbit.size)
        return orbit

    for mod in (matgroup, catalog, detect, rack):
        if getattr(mod, "class_orbit", None) is class_orbit:
            monkeypatch.setattr(mod, "class_orbit", recording)
    return sizes


def test_refute_splits_only_its_label(tmp_path, monkeypatch):
    """A per-label command builds the orbit of the class it scans only:
    the 240-element (2^2) class of Sp4(3), not its 480-element twin, whose
    size comes from its centralizer order, nor the other four classes."""
    from unirack.catalog import label_classes
    label_classes.cache_clear()          # count the split, not the memo
    sizes = _record_class_orbits(monkeypatch)
    code, _ = run(tmp_path, "refute", "--kind", "d", "--n", "2", "--q", "3",
                  "--label", "2,2", "--split", "0")
    assert code == 0 and sizes == [240]


def test_cold_table_builds_only_the_orbits_it_reads(tmp_path, monkeypatch):
    """A cold Sp4(3) table builds the orbits of the four classes that a
    scan or the sampled search reads, each once: the two (1^2,2) classes
    and the two (2^2) classes, 800 elements.  The (4) classes are decided
    by the torus strategy from their U^F members alone."""
    import functools
    from unirack import catalog, cli
    # fresh catalog memos for this test only: count the orbits it builds
    monkeypatch.setattr(catalog, "label_classes", functools.lru_cache(
        maxsize=None)(catalog.label_classes.__wrapped__))
    monkeypatch.setattr(cli, "group_catalog", catalog.group_catalog.__wrapped__)
    sizes = _record_class_orbits(monkeypatch)
    assert run(tmp_path, "table", "--n", "2", "--q", "3")[0] == 0
    assert sorted(sizes) == [40, 40, 240, 480] and sum(sizes) == 800


@pytest.mark.parametrize("argv", [
    ("refute", "--kind", "d", "--n", "2", "--q", "5", "--label", "1^2,2"),
    ("refute", "--kind", "f", "--n", "2", "--q", "5"),
    ("witness", "--n", "2", "--q", "5", "--label", "2,,2"),
    ("witness", "--n", "2", "--q", "4"),
    ("classify", "--n", "2", "--q", "5", "--label", "3"),
    ("refute", "--kind", "d", "--n", "2", "--q", "4", "--label", "V(2)+"),
    ("classify", "--n", "2", "--q", "3", "--label", "6"),
    ("witness", "--n", "2", "--q", "3", "--label", "6"),
    ("classify", "--n", "2", "--q", "3", "--label", "1,1,1,1"),
    ("classify", "--n", "2", "--q", "2", "--label", ""),
    ("refute", "--kind", "f", "--n", "2", "--q", "2", "--label", "W(1)^2"),
    ("table", "--n", "2", "--q", "6"),
    ("classify", "--n", "1", "--q", "3"),
    ("catalog", "--n", "2", "--q", "17"),
    ("refute", "--kind", "d", "--n", "2", "--q", "6", "--label", "2,2"),
    ("witness", "--n", "1", "--q", "3", "--label", "2"),
    ("refute", "--kind", "d", "--n", "2", "--q", "2", "--label", "2,2"),
    ("refute", "--kind", "d", "--n", "2", "--q", "3", "--label", "W(2)"),
    ("chevalley-verify", "--n", "1", "--q", "3"),
    ("chevalley-verify", "--n", "2", "--q", "6"),
], ids=" ".join)
def test_bad_label_fails_before_any_orbit(tmp_path, monkeypatch, argv):
    """A missing or malformed label, or one of the wrong dimension or the
    identity's, is a usage error, found before any split; so are --n and
    --q that name no supported group, found before any catalog."""
    from unirack import cli
    sizes = _record_class_orbits(monkeypatch)
    catalogs = []
    monkeypatch.setattr(cli, "group_catalog", lambda *a: catalogs.append(a))
    monkeypatch.setattr(cli, "label_catalog", lambda *a: catalogs.append(a))
    code, text = run(tmp_path, *argv)
    assert (code, text, sizes, catalogs) == (64, "", [], [])


@pytest.mark.parametrize("q, label, form", [
    (2, "2,2", "W(m) and V(2k) terms"),
    (3, "W(2)", "a partition such as 2,2"),
])
def test_malformed_label_names_the_form_it_lacks(tmp_path, capsys, q, label,
                                                 form):
    "A label in the other field parity's form is named, with the right form."
    code, _ = run(tmp_path, "refute", "--kind", "d", "--n", "2",
                  "--q", str(q), "--label", label)
    err = capsys.readouterr().err
    assert code == 64 and err.startswith(f"error: label {label!r} ")
    assert f"for q = {q}, which takes {form}" in err


@pytest.mark.parametrize("argv", [
    ("witness", "--n", "2", "--q", "3", "--label", "4", "--split", "7"),
    ("refute", "--kind", "d", "--n", "2", "--q", "3", "--label", "4",
     "--split", "7"),
], ids=" ".join)
def test_split_naming_no_class_is_a_usage_error(tmp_path, argv):
    assert run(tmp_path, *argv) == (64, "")


def test_chevalley_verify_is_not_bounded_by_the_group_range(tmp_path):
    "Sp4(17) is past the group range, but its root calculus checks run."
    code, text = run(tmp_path, "chevalley-verify", "--n", "2", "--q", "17")
    assert code == 0 and json.loads(text)["all_ok"]


def test_error_mid_run_is_not_a_usage_error(tmp_path, monkeypatch):
    "A GroupError raised after the usage checks is a fault, and propagates."
    from unirack import cli
    monkeypatch.setattr(cli, "classify", _failing(cli.classify, GroupError))
    with pytest.raises(GroupError):
        run(tmp_path, "classify", "--n", "2", "--q", "2")


def _swap_fourth_rep(entry):
    "Rep 4 of the Sp4(4) V(4) #0 family becomes another element of the class."
    F = make_field(2, 2)
    x = mat_from_ints(F, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 1, 1],
                          [1, 0, 1, 1]])
    entry["value"]["witness"]["reps"][3] = mat_json(x)
    return entry


def _commuting_s(entry):
    "The D witness's s becomes r, which commutes with r."
    w = entry["value"]["witness"]
    w["s"] = w["r"]
    return entry


def _older_shape(entry):
    "A final classify entry as earlier versions wrote it."
    return {"final": True, "verdict_json": entry["value"]}


def _truncated_rows(entry):
    "The D witness's r loses its last row."
    entry["value"]["witness"]["r"]["rows"].pop()
    return entry


def _d_orbit_size(entry):
    "The D witness's r-orbit is stored one element larger than it is."
    entry["value"]["witness"]["orbit_sizes"][0] += 1
    return entry


def _f_subrack_size(entry):
    "The F family's first subrack is stored one element larger than it is."
    entry["value"]["witness"]["subrack_sizes"][0] += 1
    return entry


@pytest.mark.parametrize("q, label, tamper", [
    (4, "V(4)", _swap_fourth_rep),
    (2, "V(4)", _commuting_s),
    (2, "V(4)", _older_shape),
    (2, "V(4)", _truncated_rows),
    (2, "V(4)", _d_orbit_size),
    (4, "V(4)", _f_subrack_size),
], ids=["F-rep-swapped", "D-s-commutes", "older-shape", "truncated-rows",
        "D-orbit-size", "F-subrack-size"])
def test_unusable_cached_verdict_is_recomputed(tmp_path, q, label, tamper):
    """A final entry whose witness fails the check that built it, or that
    has the older shape, reads as a miss: the class is classified again and
    its entry rewritten, while the other split is served from the cache."""
    cache_dir = tmp_path / "cache"
    argv = ["--cache-dir", str(cache_dir), "classify", "--n", "2",
            "--q", str(q), "--label", label]
    code1, cold = run(tmp_path, *argv)
    c = Cache(cache_dir)
    key = c.key({"op": "classify", "group": f"Sp4({q})", "label": label,
                 "split": 0, "caps": {"orbit": 10**6}, "seed": 0})
    genuine = c.get(key)
    c.put(key, tamper(json.loads(canonical_json(genuine))))
    code2, warm = run(tmp_path, *argv)
    cold_records, warm_records = (json.loads(t)["rows"][0]["records"]
                                  for t in (cold, warm))
    assert code1 == code2 == 0
    assert warm_records[0] == cold_records[0]            # no cached flag
    assert warm_records[1] == dict(cold_records[1], cached=True)
    assert c.get(key) == genuine


def test_a_fault_in_the_recheck_is_not_a_miss(tmp_path, monkeypatch):
    """Only a malformed entry reads as a miss: an error of another kind in
    the witness recheck propagates instead of making the warm run cold."""
    from unirack import detect

    def broken(*args, **kwargs):
        raise NameError("recheck fault")

    argv = ["--cache-dir", str(tmp_path / "cache"), "classify", "--n", "2",
            "--q", "4", "--label", "V(4)"]
    assert run(tmp_path, *argv)[0] == 0
    monkeypatch.setattr(detect, "check_f_family", broken)
    with pytest.raises(NameError):
        run(tmp_path, *argv)


def test_refute_d_witness_is_cached(tmp_path):
    """A not-D scan that finds a witness stores it as final: the rerun serves
    it cached, after the same recheck as a classify verdict's witness."""
    cache_dir = tmp_path / "cache"
    argv = ["--cache-dir", str(cache_dir), "refute", "--kind", "d", "--n", "2",
            "--q", "3", "--label", "4", "--split", "0"]
    code1, cold = run(tmp_path, *argv)
    code2, warm = run(tmp_path, *argv)
    first, second = (json.loads(t)["results"][0] for t in (cold, warm))
    assert (code1, code2, first["kind"]) == (2, 2, "witness_D")
    assert "cached" not in first and second == dict(first, cached=True)
    paths = list(cache_dir.glob("*.json"))
    assert len(paths) == 1
    entry = json.loads(paths[0].read_text())
    w = entry["value"]["value"]
    w["s"] = w["r"]
    paths[0].write_text(canonical_json(entry))
    code3, again = run(tmp_path, *argv)
    assert (code3, json.loads(again)["results"][0]) == (2, first)


def test_cache_roundtrip_and_corruption(tmp_path):
    c = Cache(tmp_path / "c")
    key = c.key({"op": "x"})
    assert c.get(key) is None
    c.put(key, {"a": 1})
    assert c.get(key) == {"a": 1}
    # corrupt entry is a miss
    (tmp_path / "c" / f"{key}.json").write_text("{broken")
    assert c.get(key) is None
    # version bump is a miss
    c.put(key, {"a": 1})
    path = tmp_path / "c" / f"{key}.json"
    entry = json.loads(path.read_text())
    entry["artifact_version"] = "0.0.0"
    path.write_text(canonical_json(entry))
    assert c.get(key) is None
    # well-formed JSON that is not an entry object is a miss
    for text in ("[]", "1", "null", '"value"'):
        path.write_text(text)
        assert c.get(key) is None


def test_cache_lock_is_exclusive(tmp_path):
    c1 = Cache(tmp_path / "c").acquire()
    try:
        with pytest.raises(CacheLocked):
            Cache(tmp_path / "c").acquire()
    finally:
        c1.release()
    Cache(tmp_path / "c").acquire().release()


def test_usage_errors(tmp_path, capsys):
    assert main(["classify", "--family", "sp", "--n", "2"]) == 64
    for argv in (("table", "--paper-table", "IX", "--family", "sp", "--n", "2",
                  "--q", "2"),
                 ("witness", "--family", "gu", "--n", "3", "--q", "3")):
        capsys.readouterr()
        assert run(tmp_path, *argv) == (64, "")
        assert capsys.readouterr().err.startswith("error: ")
    # caps are checked as the command line is parsed
    for argv in (("--pair-cap", "0", "refute", "--kind", "d", "--n", "2",
                  "--q", "2", "--label", "V(2)^2"),
                 ("--orbit-cap", "-1", "classify", "--n", "2", "--q", "2",
                  "--label", "V(4)"),
                 ("--sample-pairs", "-3", "classify", "--n", "2", "--q", "2")):
        capsys.readouterr()
        assert run(tmp_path, *argv) == (64, "")
        assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("table", "--family", "gu", "--n", "2", "--q", "2"),
    ("refute", "--kind", "d", "--family", "su", "--n", "2", "--q", "2",
     "--label", "V(2)^2"),
    ("classify", "--family", "gl", "--n", "2", "--q", "2"),
    ("witness", "--family", "su", "--n", "3", "--q", "2"),
], ids=" ".join)
def test_unsupported_family_is_a_usage_error(tmp_path, argv):
    "Only sp is accepted, and gu for the unitary witness; nothing is reported."
    assert run(tmp_path, *argv) == (64, "")


def test_family_is_case_insensitive(tmp_path):
    argv = ("--n", "2", "--q", "2", "--label", "V(2)^2")
    assert run(tmp_path, "refute", "--kind", "f", "--family", "SP", *argv) \
        == run(tmp_path, "refute", "--kind", "f", *argv)


def test_reference_table_file_matches_rules():
    from unirack.catalog import reference_table_text
    data = pathlib.Path("src/unirack/data/reference_verdicts.tsv").read_text()
    assert data == reference_table_text()


# exit code and SHA-256 of each report, recorded at schema version 2: odd-q
# classes split by Wall's invariant, and no orbit cap in the scans
REPORT_DIGESTS = {
    ("classify", "--n", "2", "--q", "2"): (0,
        "b6bec8fc5a40cbc5b62f80da3521f873bb3ccce76a861c1d5ccb77bf2fe430b0"),
    ("classify", "--n", "2", "--q", "3"): (0,
        "5db28ed6654cc3e319adb5663824272419d899ff4c75c00b3afa293528cbce05"),
    # type-F verdicts through the torus-F strategy, with their logs
    ("classify", "--n", "2", "--q", "4"): (0,
        "72e6df2ceeaeb0bab93856f8e4240a9d741f610057c2808c6ea15950f4e13e2e"),
    # the capped refute_d scan gives the "budget" verdict, which exits 3
    ("--pair-cap", "3", "--sample-pairs", "2", "classify", "--n", "2",
     "--q", "3", "--label", "2,2"): (3,
        "cca0655ba5e0983f6740229115177a91e7ea4de0c5b63a1750a18d77f99a4cbd"),
    ("catalog", "--n", "2", "--q", "3"): (0,
        "19aaf6063f5c7058e50afdf09b1f356bc50472dbe713ddd37b7f791f83e8dd58"),
    ("refute", "--kind", "f", "--n", "2", "--q", "3", "--label", "2,2",
     "--split", "0"): (0,
        "985b8fe1408dc6daca945fdb564a988bcd23b1e6343cc7a46441153dce133e15"),
    ("witness", "--family", "gu", "--n", "3", "--q", "2"): (0,
        "80f4eae9c56a1626396cc046f2793d4376ab2738d7ca15ff3d6e2be56c213f9f"),
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_report_digests_are_pinned(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("UNIRACK_CACHE", raising=False)
    out = tmp_path / "out.json"
    assert (main(["--output", str(out), *argv]), _digest(out)) \
        == REPORT_DIGESTS[argv]


# a cold and then a warm table in one cache
CACHED_TABLE_DIGESTS = [
    "b6bec8fc5a40cbc5b62f80da3521f873bb3ccce76a861c1d5ccb77bf2fe430b0",
    "35f4bf246b619f3d3df8c379f11a00d7ab0e19950074e34fd4cff7096b819305"]


def test_cached_report_digests_are_pinned(tmp_path):
    """A cold and then a warm table in one cache: the warm report marks
    every verdict cached after its witnesses were checked again."""
    argv = ["--cache-dir", str(tmp_path / "cache"), "--output",
            str(tmp_path / "out.json"), "table", "--n", "2", "--q", "2"]
    digests = []
    for _ in range(2):
        assert main(argv) == 0
        digests.append(_digest(tmp_path / "out.json"))
    assert digests == CACHED_TABLE_DIGESTS


# each step's global options, exit code and report digest, recorded at
# schema version 2 like REPORT_DIGESTS
CACHED_STEP_DIGESTS = {
    # a capped not-D scan, its resume, and the certificate served cached
    ("refute", "--kind", "d", "--n", "2", "--q", "2", "--label", "V(2)^2"): [
        (("--pair-cap", "10"), 3,
         "9aa0bc72f6f054b9dfc87ebfa89a9ff99051a0a6dac6616d66cb06cf7de6f2ff"),
        ((), 0,
         "70cb00ca8d1e6589fd1118c56aee8861e5f8cc992c92411077f6c3b9f20dd7a8"),
        ((), 0,
         "e168aaac1941285d0403743d08c6a12f120fbdd28765426b669f282c71cd9795")],
    # two type-F verdicts, then both served cached after their families
    # passed check_f_family again
    ("classify", "--n", "2", "--q", "4", "--label", "V(4)"): [
        ((), 0,
         "7e31aefc5695913e3188dd1be030300f7968574c79011f38c05a72430d5cf3ac"),
        ((), 0,
         "d76bd033d0a9447b2ee7456e3d62767ab76f2b42e1b54f52b55629821e646c78")],
}


@pytest.mark.parametrize("argv", list(CACHED_STEP_DIGESTS), ids=" ".join)
def test_cached_step_digests_are_pinned(tmp_path, argv):
    got = []
    for options, _, _ in CACHED_STEP_DIGESTS[argv]:
        code = main(["--cache-dir", str(tmp_path / "cache"), "--output",
                     str(tmp_path / "out.json"), *options, *argv])
        got.append((options, code, _digest(tmp_path / "out.json")))
    assert got == CACHED_STEP_DIGESTS[argv]


def _pinned_runs():
    """(id, runs) of each pinned report sequence, a run being (argv, exit
    code, digest); the runs of one sequence share a cache directory."""
    for argv, pin in REPORT_DIGESTS.items():
        yield " ".join(argv), [(argv, *pin)]
    table = ("table", "--n", "2", "--q", "2")
    yield "cached " + " ".join(table), [(table, 0, d)
                                        for d in CACHED_TABLE_DIGESTS]
    for argv, steps in CACHED_STEP_DIGESTS.items():
        yield "cached " + " ".join(argv), [((*options, *argv), code, d)
                                           for options, code, d in steps]


PINNED_RUNS = dict(_pinned_runs())


def _witness_values(report):
    "The verdict and refutation values of a report that carry a witness."
    values = [r for row in report.get("rows", ()) for r in row["records"]]
    values += report.get("results", []) + [report.get("result", {})]
    return [v for v in values
            if v.get("witness", v).get("kind") in ("witness_D", "witness_F")]


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_pinned_reports_pass_the_recheck(tmp_path, monkeypatch, name):
    """Every D and F value of every pinned report, served cached or not,
    passes `recheck` from the value alone and U^F of its group."""
    from unirack.catalog import group_catalog
    from unirack.detect import recheck
    monkeypatch.delenv("UNIRACK_CACHE", raising=False)
    cache = []
    if name.startswith("cached "):
        cache = ["--cache-dir", str(tmp_path / "cache")]
    for argv, code, digest in PINNED_RUNS[name]:
        out = tmp_path / "out.json"
        assert (main([*cache, "--output", str(out), *argv]), _digest(out)) \
            == (code, digest)
        report = json.loads(out.read_text())
        sp = re.fullmatch(r"Sp(\d+)\((\d+)\)", report["group"])
        u_group = group_catalog(int(sp[1]), int(sp[2])).u_group if sp else ()
        for value in _witness_values(report):
            assert recheck(value, u_group), value
