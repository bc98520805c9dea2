"""Golden report snapshots for the whole pipeline.

Every corpus program's JSON report (without timings, with the icall
dump) is compared byte for byte against `tests/golden/<name>.json`, and
five seed-query reports against `tests/golden/<name>.seed.json`.  Every
corpus program is also run under tight caps (`TIGHT_CAPS`: an alias cap
of 2 and an induction merge after every sweep) against
`tests/golden/<name>.tight.json`, which pins the order of cap hits, the
re-injection after them and the merge results.  After a deliberate
change to the reports, regenerate the files from the root of the
checkout with

    PYTHONPATH=src python tests/test_pipeline.py
"""

import os
import pathlib

import pytest

from mirtaint import pipeline

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CORPUS = sorted(p.name for p in (ROOT / "corpus").glob("*.ir"))
SEED_QUERIES = {
    "callsite_mod_kill.ir": ("main:bb0:r1+load(r2)",),
    "intuitive.ir": ("main:bb0:load(r3+0x8)",),
    "ite_exclusive.ir": ("main:use:r6",),
    "loop_walk.ir": ("main:head:load(r1)",),
    "summaries_tour.ir": ("main:bb0:r1",),
}
TIGHT_CAPS = {"MIRTAINT_ALIAS_CAP": "2", "MIRTAINT_LOOP_K": "1"}


def _cases():
    for name in CORPUS:
        yield name, (), {}, f"{name[:-3]}.json"
    for name, seeds in sorted(SEED_QUERIES.items()):
        yield name, seeds, {}, f"{name[:-3]}.seed.json"
    for name in CORPUS:
        yield name, (), TIGHT_CAPS, f"{name[:-3]}.tight.json"


def report_text(name: str, seeds: tuple[str, ...] = ()) -> str:
    """The report of corpus/<name>, with a path relative to the root."""
    config = pipeline.RunConfig(ir_path=f"corpus/{name}", seeds=seeds,
                                dump_icalls=True)
    return pipeline.analyze(config).to_json(with_timings=False) + "\n"


@pytest.mark.parametrize("name,seeds,caps,golden", list(_cases()),
                         ids=[golden for *_, golden in _cases()])
def test_report_matches_golden(name, seeds, caps, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    for var in pipeline._ENV_CAPS:
        monkeypatch.delenv(var, raising=False)
    for var, value in caps.items():
        monkeypatch.setenv(var, value)
    assert report_text(name, seeds) == (GOLDEN / golden).read_text()


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for var in pipeline._ENV_CAPS:
        os.environ.pop(var, None)
    for name, seeds, caps, golden in _cases():
        os.environ.update(caps)
        (GOLDEN / golden).write_text(report_text(name, seeds))
        for var in caps:
            del os.environ[var]
