"""Golden result digests: the bytes every experiment reports, pinned.

Each case runs one experiment at seed 0 and hashes the canonical JSON of
``ExperimentResult.to_dict()`` (sorted keys, compact separators).  The
digests were recorded before the fixed-trial estimators were folded into
the sequential-stopping path, so a refactor that moves a single coin, a
trial count or an interval bound fails here.  The runs are deterministic:
the same commit always reproduces the same digests.

Regenerate (only after an intentional result change) with::

    PYTHONPATH=src python tests/integration/test_result_digests.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Session

#: (case id, experiment, preset overrides).  Every experiment runs at its
#: quick preset; E2 is shrunk further so the file stays fast.  Beyond the
#: default engine, the table covers precision targets, the reference loops
#: (``engine="off"``) and the vectorized sampler (``engine="fast"``),
#: including the fused construct→decide paths of E6, E8 and E9.
CASES = (
    ("E1", "E1", {}),
    ("E2", "E2", {"sizes": [30], "eps_values": [0.75], "trials": 30, "decider_trials": 100}),
    ("E3", "E3", {}),
    ("E4", "E4", {}),
    ("E5", "E5", {}),
    ("E6", "E6", {}),
    ("E7", "E7", {}),
    ("E8", "E8", {}),
    ("E9", "E9", {}),
    ("E10", "E10", {}),
    ("E1-precision", "E1", {"precision": 0.05}),
    ("E5-precision", "E5", {"precision": 0.05}),
    ("E9-off", "E9", {"engine": "off"}),
    ("E5-fast", "E5", {"engine": "fast"}),
    ("E7-fast", "E7", {"engine": "fast"}),
    ("E6-fast", "E6", {"engine": "fast"}),
    ("E6-off", "E6", {"engine": "off"}),
    ("E8-fast", "E8", {"engine": "fast"}),
    ("E9-fast", "E9", {"engine": "fast"}),
)

DIGESTS = {
    "E1": "f5151a191c2a328a9d6e1b247755541557290554aa52a08e00d7380387182fb4",
    "E2": "0e7eb4b4b889ec9ea9969371743b4c514ac958d757cbf15a671c69422a89f302",
    "E3": "2a9c8293017640a5f020e694ee014ea459fd6f1271e3e8af224fbec45c675b6f",
    "E4": "a1a9a81961dc9681cdf1d3fd1fb994a4fe2c51849495ab65a0a9caef75386437",
    "E5": "8d62164fe4da8abfb0b746928fee56e1c5e2bae3f1fc623da48e17351f1d3a92",
    "E6": "1a6db5484cb3906c733eef8d8ddda0b12dee086c6f1bc2fbc422de39f983eedc",
    "E7": "19c919352ab90d8557358580361390da371c6e0a0cfc53a77f28ba57588c6847",
    "E8": "6d7fed6168507a962fcbe92543db3b0f6f1f72f8d35e9401adb1e7b047bf06c3",
    "E9": "6914115a62023436d6764007fbf93250146ed525057f5165f44c2b31a9337fd1",
    "E10": "bdb319c8e0f84629a7d1432ba6d3e907e499a91e175e36c2ad1475f7f5111860",
    "E1-precision": "8159a20f5530c69607cdcfd1cebc2873e35dab2da312b223eb76fa5607fa4f79",
    "E5-precision": "64c0916cd35640867b4c8285193c26c81575f9386235e963017d7fea9d0cdc47",
    "E9-off": "656aed30e1dcee7e72cad0df435bdd7eb7edb1eec90b670254363ab73ccb7ebe",
    "E5-fast": "e7a591d8956a017c1ba989fafe5beb30268aa61a9536dec191123850ecd40ef6",
    "E7-fast": "d95543489677ba59023b43d07508a43cc30b951e115b0de353706d0c9dfd6a21",
    "E6-fast": "beb50f60b1ea58fde068d222b7708f044fdc1409143938edfd6fa197b1c6f317",
    "E6-off": "2438bdc8f57574a489b9add2263e22fe62508fa6acff807d73d1e8311bd81199",
    "E8-fast": "c146168a5f41536247b1572ac07b4360c3b806d3901398b36e5b8721b014e9ad",
    "E9-fast": "74fb59c2b8c57b60bae19ee3ddce3302d820c899f380184af6f4a2796a4041ff",
}


def result_digest(experiment: str, overrides: dict) -> str:
    report = Session(cache=None, seed=0).run(experiment, preset="quick", **overrides)
    canonical = json.dumps(
        report.result.to_dict(), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "case, experiment, overrides", CASES, ids=[case for case, _, _ in CASES]
)
def test_result_digest_is_pinned(case, experiment, overrides):
    assert result_digest(experiment, overrides) == DIGESTS[case]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case, experiment, overrides in CASES:
        print(f'    "{case}": "{result_digest(experiment, overrides)}",')
