"""Golden synthesized logs: the RTL2 bytes of known (profile, seed, scale)
logs are pinned by sha256.

The digests were recorded from the record-object renderer that the
column renderer replaced, so they pin that the synthesizer's output is
unchanged byte for byte.  The cases cover SPEC (gzip) and interactive
suites (word, iexplore, solitaire); the interactive logs at the larger
scale carry module unmaps and pin/unpin pairs.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.tracelog.binary import dumps_binary
from repro.workloads.catalog import get_profile
from repro.workloads.synthesis import synthesize_compiled, synthesize_log

#: (benchmark, seed, multiplier of the profile's default scale) -> sha256
#: of ``dumps_binary`` of the synthesized log.
GOLDEN = {
    ("gzip", 3, 8): "86025c081eaf5bb8fa9dee459d87c033fb8d984935e1f39791098eda0cbbd0c0",
    ("gzip", 3, 64): "45364e036ab2f9e9f692b6e79c6d90eefcd9e111e45b18190caec02b39fa6a09",
    ("gzip", 42, 8): "3f7a51cdffe9db63188be9e7f7680dac321a6a15e482bc9bc9d28882364ec23b",
    ("gzip", 42, 64): "6ecd4f711f60fd42615d5dabb39ad77f41c4225132b4a6f25c31709835e28df5",
    ("word", 3, 8): "1898c2c5ed7c9308c0f7758ec4a05263519ccd5babe847876c946f8e71d623f7",
    ("word", 3, 64): "87c4ce4fec4dadc1f979abe7e58f4917a045cf596d68d9ac2a1742b89752470e",
    ("word", 42, 8): "8b63e0f3f44304478f05a194a79bcfaf6b45263e63e89226a90650a4b271f19f",
    ("word", 42, 64): "9ccb91d3b256bffa29792b67e722bf78ed95452c6cc0d813fe03a7f5c231a488",
    ("iexplore", 3, 8): "3ff455499f05d55074ef50b0d7a4086eabc6532a25840b645f2ad434ac2126fb",
    ("iexplore", 3, 64): "f20749798776432b915372fe74695ae9a00b85aff14919db9d3a3ba1afc9c683",
    ("iexplore", 42, 8): "9590b5cf0781ef8a09a030b4cccb4683b77f1e3b9149402eb0ab9391008ec0e0",
    ("iexplore", 42, 64): "28d6b012fabb5e9f35ef195f14f96efe0e740e97cc418131890ab74910b179c3",
    ("solitaire", 3, 8): "468166e646c3d578aecd54c04b5338cbeb2ed130784b6d8adb1ac2222adac4b1",
    ("solitaire", 3, 64): "90c21963cdf87f30b22aa46b83df8206b4e3d6fbc5bbf3fde1666b528eb175be",
    ("solitaire", 42, 8): "590f3fddc56988639bb4a2a22a1d9ec83ab661e97a46e6cae8b724395ef1e3ca",
    ("solitaire", 42, 64): "5be18902d409baaa53bba9990d92d4fc2c69549ec2f193dc1d4ecc51d1aa6201",
}


def _digest(log) -> str:
    return hashlib.sha256(dumps_binary(log)).hexdigest()


@pytest.mark.parametrize(
    "name, seed, multiplier", sorted(GOLDEN), ids=lambda v: str(v)
)
def test_synthesized_log_matches_golden_bytes(name, seed, multiplier):
    profile = get_profile(name)
    scale = profile.default_scale * multiplier
    compiled = synthesize_compiled(profile, seed=seed, scale=scale)
    assert _digest(compiled) == GOLDEN[(name, seed, multiplier)]


def test_object_log_serializes_to_the_same_bytes():
    profile = get_profile("word")
    scale = profile.default_scale * 64
    log = synthesize_log(profile, seed=3, scale=scale)
    assert _digest(log) == GOLDEN[("word", 3, 64)]
