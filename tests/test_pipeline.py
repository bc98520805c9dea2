"""Golden report snapshots for the whole pipeline.

Every corpus program's JSON report (without timings, with the icall
dump) is compared byte for byte against `tests/golden/<name>.json`, and
three seed-query reports against `tests/golden/<name>.seed.json`.  After a
deliberate change to the reports, regenerate the files from the root of
the checkout with

    PYTHONPATH=src python tests/test_pipeline.py
"""

import pathlib

import pytest

from mirtaint import pipeline

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CORPUS = sorted(p.name for p in (ROOT / "corpus").glob("*.ir"))
SEED_QUERIES = {
    "callsite_mod_kill.ir": ("main:bb0:r1+load(r2)",),
    "intuitive.ir": ("main:bb0:load(r3+0x8)",),
    "summaries_tour.ir": ("main:bb0:r1",),
}


def _cases():
    for name in CORPUS:
        yield name, (), f"{name[:-3]}.json"
    for name, seeds in sorted(SEED_QUERIES.items()):
        yield name, seeds, f"{name[:-3]}.seed.json"


def report_text(name: str, seeds: tuple[str, ...] = ()) -> str:
    """The report of corpus/<name>, with a path relative to the root."""
    config = pipeline.RunConfig(ir_path=f"corpus/{name}", seeds=seeds,
                                dump_icalls=True)
    return pipeline.analyze(config).to_json(with_timings=False) + "\n"


@pytest.mark.parametrize("name,seeds,golden", list(_cases()),
                         ids=[golden for _, _, golden in _cases()])
def test_report_matches_golden(name, seeds, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    for var in pipeline._ENV_CAPS:
        monkeypatch.delenv(var, raising=False)
    assert report_text(name, seeds) == (GOLDEN / golden).read_text()


if __name__ == "__main__":
    import os
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, seeds, golden in _cases():
        (GOLDEN / golden).write_text(report_text(name, seeds))
