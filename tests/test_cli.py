import hashlib
import json
import pathlib

import pytest

from unirack.cache import Cache, CacheLocked, canonical_json
from unirack.cli import main


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


def test_witness_command_gu(tmp_path):
    code, text = run(tmp_path, "witness", "--family", "gu", "--n", "3", "--q", "2")
    assert code == 0
    rep = json.loads(text)
    assert rep["result"]["su_class_count"] == 3


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


def test_resume_state_key_depends_on_caps(tmp_path):
    c = Cache(tmp_path / "c")
    k1 = c.key({"op": "refute_d", "caps": {"pairs": 10}})
    k2 = c.key({"op": "refute_d", "caps": {"pairs": 20}})
    assert k1 != k2


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


def test_cache_lock_is_exclusive(tmp_path):
    c1 = Cache(tmp_path / "c").acquire()
    try:
        with pytest.raises(CacheLocked):
            Cache(tmp_path / "c").acquire()
    finally:
        c1.release()
    Cache(tmp_path / "c").acquire().release()


def test_usage_errors(tmp_path):
    assert main(["classify", "--family", "sp", "--n", "2"]) == 64
    code, _ = run(tmp_path, "table", "--paper-table", "IX",
                  "--family", "sp", "--n", "2", "--q", "2")
    assert code == 64


def test_reference_table_file_matches_rules():
    from unirack.catalog import reference_table_text
    data = pathlib.Path("src/unirack/data/reference_verdicts.tsv").read_text()
    assert data == reference_table_text()


# exit code and SHA-256 of each report, recorded before the refactors that
# must reproduce every byte (the compiled orbit kernel, the strategy table)
REPORT_DIGESTS = {
    ("classify", "--n", "2", "--q", "2"): (0,
        "272c614f82bc7a89314ce41c0690342a9e7ff9b1fdfc6cadb12ff45f371ce180"),
    ("classify", "--n", "2", "--q", "3"): (0,
        "7873da03a24478c259df3116ca522a29144fbcea5e363a76aaf6b8be5d3f192b"),
    # type-F verdicts through the torus-F strategy, with their logs
    ("classify", "--n", "2", "--q", "4"): (0,
        "c2cc34a89ef635119e5cf4a09b11abbb1ce04f683ac45b79fc6d86793a359d2e"),
    # the capped refute_d scan gives the "budget" verdict, which exits 3
    ("--pair-cap", "3", "--sample-pairs", "2", "classify", "--n", "2",
     "--q", "3", "--label", "2,2"): (3,
        "a7073a2e90b54339efbc846a3ebb4111e22f7468b585ac00003bfba9946342bc"),
    ("catalog", "--n", "2", "--q", "3"): (0,
        "3dc394746e9f341e69531585ce09299d697f3044d02ece2a8351dc09dd127866"),
    ("refute", "--kind", "f", "--n", "2", "--q", "3", "--label", "2,2",
     "--split", "0"): (0,
        "39f934f0b58190db17b484f3c03d7c925b9e5fb7afc7341c3d7eeb9b0a908840"),
    ("witness", "--family", "gu", "--n", "3", "--q", "2"): (0,
        "c51b66eef7bb990f9aebc2b186a2ac87ec06b9e6d17dc2d7cb757d24dba20398"),
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
def test_report_digests_are_pinned(tmp_path, monkeypatch, argv):
    monkeypatch.delenv("UNIRACK_CACHE", raising=False)
    out = tmp_path / "out.json"
    assert (main(["--output", str(out), *argv]), _digest(out)) \
        == REPORT_DIGESTS[argv]


def test_cached_report_digests_are_pinned(tmp_path):
    """A cold and then a warm table in one cache: the warm report marks
    every verdict cached after its witnesses were checked again."""
    argv = ["--cache-dir", str(tmp_path / "cache"), "--output",
            str(tmp_path / "out.json"), "table", "--n", "2", "--q", "2"]
    digests = []
    for _ in range(2):
        assert main(argv) == 0
        digests.append(_digest(tmp_path / "out.json"))
    assert digests == [
        "272c614f82bc7a89314ce41c0690342a9e7ff9b1fdfc6cadb12ff45f371ce180",
        "fffd414756062cfce7f6ed894d4ec94016c2abab9f45cd160227f6bb68f95934"]
