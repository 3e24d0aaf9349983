"""Pinned transcript digests for a small `sim` scenario matrix.

Every configuration runs 20 trials on the `sim` group (t=2, n=5,
p_flip=0.02, seed=3, 64-bit Paillier). The transcript digest and the
denial-reason counts are pinned byte for byte, so a refactor or speed-up
that changes a single wire message, random draw or outcome fails here.
"""

import pytest

from faskit.simulator import ScenarioConfig, run_scenario

BASE = {"group": "sim", "t": 2, "n": 5, "p_flip": 0.02, "seed": 3,
        "trials": 20, "paillier_bits": 64}

GENUINE = {}
IMPOSTOR = {"impostor": True}
REPLAY = {"adversary": "replay"}
EAVESDROP = {"adversary": "eavesdrop", "score_mode": "cloud-plain"}
INFLATE = {"adversary": "score_inflate", "score_mode": "cloud-encrypted"}
TAMPER = {"adversary": "tamper_partial"}
PD_SHARE = {"pd_holds_share": True}


def stolen(k):
    return {"adversary": "stolen_k", "adversary_k": k}


OK = {"ok": 20}
SCORE = {"score": 20}
REPLAYED = {"replay": 20}
INSUFFICIENT = {"insufficient-devices": 20}
INVALID = {"invalid-partial": 20}

# (case, overrides, transcript digest, reason counts)
GOLDEN = [
    (1, GENUINE,
     "479cef73efd696d627c4cd90938e2193972d4bcd2957535357b82f95f7937264", OK),
    (1, IMPOSTOR,
     "88e302a67b9dc4683ed4bf29cd68ed4bcd7c1bc8aa1f85933882995db9c2849f",
     SCORE),
    (1, REPLAY,
     "103f00a79be26ad442938c7a2465beb05f6e7e3ad72da975363153b1d3efd677",
     REPLAYED),
    (1, stolen(2),
     "4f38c676e82ea12e0de89221d6efd1648d69a55c15df4c84e85cdae30fae9210",
     INSUFFICIENT),
    (1, stolen(3),
     "4f38c676e82ea12e0de89221d6efd1648d69a55c15df4c84e85cdae30fae9210",
     INSUFFICIENT),
    (1, stolen(5),
     "4f38c676e82ea12e0de89221d6efd1648d69a55c15df4c84e85cdae30fae9210",
     INSUFFICIENT),
    (1, EAVESDROP,
     "58d6d7c1582a6e09059b61349b12d8ea62ba83e2bef527902a3e37b6381ea2f8", OK),
    (1, INFLATE,
     "8b6ab7b192bc765e3637768938534340cca3caf63ffe78548f1e5aa16686aed9",
     SCORE),
    (2, GENUINE,
     "4ac50818074a97678c310f8a999fac0b7e98d79d2a4d2bbe2bd6049c1bbefcdd", OK),
    (2, IMPOSTOR,
     "88e302a67b9dc4683ed4bf29cd68ed4bcd7c1bc8aa1f85933882995db9c2849f",
     SCORE),
    (2, REPLAY,
     "c3d38d41f9b544bfd15b50a6c6b62514c8198302cac13a3e2ce818e7737a492e",
     REPLAYED),
    (2, stolen(2),
     "4f38c676e82ea12e0de89221d6efd1648d69a55c15df4c84e85cdae30fae9210",
     INSUFFICIENT),
    (2, stolen(3),
     "3d6cff82909dac8c90b104a02cf4180e8295d811a9da3c436d7e3b996e85f71a", OK),
    (2, stolen(5),
     "3d6cff82909dac8c90b104a02cf4180e8295d811a9da3c436d7e3b996e85f71a", OK),
    (2, EAVESDROP,
     "969c183daa56756585046584489091fe7311b28b5ad1a507d1cb9b3152f1d122", OK),
    (2, INFLATE,
     "8b6ab7b192bc765e3637768938534340cca3caf63ffe78548f1e5aa16686aed9",
     SCORE),
    (2, TAMPER,
     "1a82fc9465d7796e5ad7ee5c282f4f703aa6f1d82d53f9df633f47b426340ed7",
     INVALID),
    (2, PD_SHARE,
     "68459b8508fb36586f503e52f4626628f841b334f3a6913f8cbac3edbe5e975e", OK),
    (2, {**PD_SHARE, **stolen(3)},
     "0e6e00d30070f6d9eabb5c815712a07759e6f841327dcc729b3300ee8dae1ca6", OK),
    (2, {"t": 1, "n": 3, **stolen(2)},
     "258a6c390cc4d4c5505777f261452c62a1cc479fabd37beb5c79fdbc64dcffa2", OK),
    (3, GENUINE,
     "f8a512cb5d0514721b25bca40ef4b8b9c61e0de791daf8ea972a0498d22dc401", OK),
    (3, IMPOSTOR,
     "013e8c4acd5d1d346f576ab03b8e95af2f4ddca5ec0c1b41c6e736336e56ce99",
     SCORE),
    (3, REPLAY,
     "afef8220ae262ee4eabed92deeeb0a810097909b54b30fbf76c244e666fcc883",
     REPLAYED),
    (3, stolen(2),
     "e37ac32a631b6b17a3faf194337ed5e73697b50cc3560ef7dcc9cc07be55e386",
     INSUFFICIENT),
    (3, stolen(3),
     "e37ac32a631b6b17a3faf194337ed5e73697b50cc3560ef7dcc9cc07be55e386",
     INSUFFICIENT),
    (3, stolen(5),
     "e37ac32a631b6b17a3faf194337ed5e73697b50cc3560ef7dcc9cc07be55e386",
     INSUFFICIENT),
    (3, EAVESDROP,
     "09ff2b32f28f8770de00899a2bf6eadb6fc2c9516f1f2b97497a515ed9361aa1", OK),
    (3, INFLATE,
     "a93ad3ea1ad93b686bf6518366494c9af19eb8c2ba28e67a85818e5316054e00",
     SCORE),
    (3, TAMPER,
     "d281a1ac655b44244d81d942d8da8fb98cd27265cfa955d8785c16bbf975a0e5",
     INVALID),
    (3, PD_SHARE,
     "e5f890b424be048f95c333e6f08e6ef8065ef2c9dbe8ec015cfa4f7efc325bf5", OK),
    (3, {**PD_SHARE, **stolen(3)},
     "e6e0d10622f1a6bfc6bc8ddb7e670cf5d1ad78d1e47f3bf189edbd63b0a7df9c",
     INSUFFICIENT),
]


def _config_id(row):
    case, overrides = row[0], row[1]
    parts = [f"{k}={v}" for k, v in overrides.items()] or ["genuine"]
    return "-".join([f"case{case}", *parts])


@pytest.mark.parametrize("case,overrides,digest,reasons", GOLDEN,
                         ids=[_config_id(row) for row in GOLDEN])
def test_golden_transcript_digest(case, overrides, digest, reasons):
    report = run_scenario(ScenarioConfig(**{**BASE, "case": case,
                                            **overrides}))
    assert report.reason_counts == reasons
    assert report.transcript_digest == digest
