"""Every cache group's behaviour, pinned by digest.

Seeded random insert / access / unmap / pin / unpin sequences run on
every sharing-policy variant, under both promotion modes, two local
policies and two process layouts.  Each call's return value and the
group's state after it feed one digest per configuration, so a change
to how any group places, promotes, unmaps or pins a trace fails here,
whichever code path the group takes to do it.

Trace sizes reach past a nursery: with three 500-byte processes a
300-byte trace overflows every private cache but fits the pooled
shared cache, and with one 1000-byte process probation and the
persistent share tie at 400 bytes, so both oversized-trace fallbacks
and their tie-break run.

Half the seeds serve accesses through ``lookup`` + ``on_hit`` (the
reference simulator's path), the other half through the
``hit_entries`` handlers the fleet engine calls.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.config import GenerationalConfig, PromotionMode
from repro.errors import CacheFullError
from repro.shared.manager import make_group
from repro.shared.policy import (
    POLICY_VARIANTS,
    SharingConfig,
    SharingPolicy,
    sharing_config_for,
)

SIZES = (40, 60, 90, 120, 300)
GIDS = 10
SEEDS = 25
OPS = 80
LAYOUTS = {"3x500": (500, 500, 500), "1x1000": (1000,)}
#: The operation mix of ``tests/shared/test_manager.py``'s ``DIFF_OPS``.
KINDS = ("insert", "insert", "access", "access", "access", "unmap", "pin", "unpin")


def _sharing(variant: str) -> SharingConfig:
    if variant == "shared-persistent-temp":
        # A short half-life, so decay decides promotions within one
        # sequence.
        return SharingConfig(
            policy=SharingPolicy.SHARED_PERSISTENT,
            temperature=True,
            temperature_half_life=20,
        )
    return sharing_config_for(variant)


def _config(mode: PromotionMode, local_policy: str) -> GenerationalConfig:
    return GenerationalConfig(
        nursery_fraction=0.2,
        probation_fraction=0.4,
        persistent_fraction=0.4,
        promotion_threshold=2,
        promotion_mode=mode,
        local_policy=local_policy,
    )


def _plain(value):
    """JSON form of effects and enums."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return [type(value).__name__, *map(_plain, value)]
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return getattr(value, "value", value)


def _state(group) -> list:
    """What a call can change: every cache's records and counters (the
    caches as an unordered set), each process's lookups, the copy
    counts, the shared cache's sharers and reuse counters, and the
    temperatures."""
    caches = sorted(
        json.dumps(
            [
                cache.name,
                cache.capacity,
                [
                    [
                        t.trace_id,
                        t.size,
                        t.module_id,
                        t.insert_time,
                        t.access_count,
                        t.last_access,
                        t.pinned,
                    ]
                    for t in cache.traces()
                ],
            ]
        )
        for cache in group._iter_caches()
    )
    lookups = [
        [group.lookup(process, gid) for gid in range(GIDS)]
        for process in range(group.n_processes)
    ]
    shared = getattr(group, "shared", None)
    sharing = None
    if shared is not None:
        sharing = [
            [list(shared.processes_of(gid)) for gid in range(GIDS)],
            shared.attach_reuses,
            shared.reused_bytes,
        ]
    tracker = getattr(group, "_tracker", None)
    temperatures = (
        None if tracker is None else sorted(tracker.state_table().items())
    )
    return [
        caches,
        lookups,
        sorted(group.resident_copies().items()),
        sharing,
        _plain(temperatures),
    ]


def _entry_access(group, entries, process, gid, time, count, module):
    """An access served the fleet engine's way: the hit entry of the
    cache holding *gid*, touched in place when it is plain."""
    name = group.lookup(process, gid)
    if name is None:
        return None
    _, _, handler, cache = entries[process][name]
    if handler is None:
        record = cache.find(gid)
        record.access_count += count
        record.last_access = time
        return [name, []]
    return [name, list(handler(process, gid, time, count, module))]


def _call(group, entries, op, time):
    kind, process, gid, module, count = op
    if kind == "access":
        if entries is not None:
            return _entry_access(
                group, entries, process, gid, time, count, module
            )
        if group.lookup(process, gid) is None:
            return None
        outcome = group.on_hit(process, gid, time, count, module)
        return [outcome.cache, outcome.effects]
    if kind == "insert":
        name = group.lookup(process, gid)
        if name is not None and not group.hit_entries(process)[name][1]:
            # Engines (re)insert a trace only when it is missing or
            # held in a shared cache, where the insert deduplicates.
            return "resident"
        outcome = group.insert(
            process, gid, SIZES[gid % len(SIZES)], module, time
        )
        return [outcome.effects, outcome.deduped]
    if kind == "unmap":
        return group.unmap_module(process, module, time)
    if kind == "pin":
        return group.pin(process, gid)
    return group.unpin(process, gid)


def group_digest(variant, mode, local_policy, layout) -> str:
    """The digest of every seeded sequence on one configuration."""
    capacities = LAYOUTS[layout]
    digest = hashlib.sha256()
    for seed in range(SEEDS):
        rng = random.Random(seed)
        group = make_group(
            capacities, _config(mode, local_policy), _sharing(variant)
        )
        entries = None
        if seed % 2:
            entries = [
                group.hit_entries(process)
                for process in range(group.n_processes)
            ]
        time = 0
        for _ in range(OPS):
            op = (
                rng.choice(KINDS),
                rng.randrange(len(capacities)),
                rng.randrange(GIDS),
                rng.randrange(3),  # module
                rng.randint(1, 3),  # hit count
            )
            time += rng.randint(0, 12)
            try:
                result = _call(group, entries, op, time)
            except CacheFullError:
                result = "cache-full"
            step = [list(op), time, _plain(result), _state(group)]
            digest.update(json.dumps(step).encode())
            if result == "cache-full":
                break  # a failed placement ends the sequence
        else:
            group.check_invariants()
    return digest.hexdigest()


CONFIGURATIONS = [
    (variant, mode, local_policy, layout)
    for variant in POLICY_VARIANTS
    for mode in PromotionMode
    for local_policy in ("pseudo-circular", "lru")
    for layout in LAYOUTS
]

GOLDEN: dict[tuple[str, str, str, str], str] = {
    ("private", "on-hit", "pseudo-circular", "3x500"): (
        "b1bebadf171fa1ce513abf2576efba3a0aba58cf027381e855760e6452eae857"
    ),
    ("private", "on-hit", "pseudo-circular", "1x1000"): (
        "733be0237ef5f38f36914ddeada25a4105edb65b362a3e9ad562a814f540bef7"
    ),
    ("private", "on-hit", "lru", "3x500"): (
        "4911d670a07c9a0a3394fe8004fe1fd89202fd6039ea4cf375a897cfcf7f2e83"
    ),
    ("private", "on-hit", "lru", "1x1000"): (
        "e075fe97135618ecdbd496aed5fae2f5bf5dd1fe469c66e472b8928288f73c80"
    ),
    ("private", "on-eviction", "pseudo-circular", "3x500"): (
        "08f5379967251e2cdc6d1f70c083e72853ec2aadea4dec78f822f1b7fda7a2cf"
    ),
    ("private", "on-eviction", "pseudo-circular", "1x1000"): (
        "8000635fa39c3145035549fe579177a0ecdbcb1c9c07dca65641acf2ad0ee016"
    ),
    ("private", "on-eviction", "lru", "3x500"): (
        "9c81a50955998d7789476aea52dcf292b6002c44dc4acdfc6a7b9055157633c4"
    ),
    ("private", "on-eviction", "lru", "1x1000"): (
        "1d3e8d29f81444790c4bfcb3204a36900ff61a23f2dd108dbc80a9528987306d"
    ),
    ("shared-persistent", "on-hit", "pseudo-circular", "3x500"): (
        "ba26265a676b53cd9fdf262b8b07f857859a2aef12df314985de2f6a6ad1aedc"
    ),
    ("shared-persistent", "on-hit", "pseudo-circular", "1x1000"): (
        "0cc1d81428e56d914bb67425ca11a191df8f3fcf4422fe1e98d372acd5943e27"
    ),
    ("shared-persistent", "on-hit", "lru", "3x500"): (
        "a34f2fb4398ac1a3c90b6f9700b65f320f6d57c08c276fa1bf8196307952e4ae"
    ),
    ("shared-persistent", "on-hit", "lru", "1x1000"): (
        "803acddb7152e18da27feff7bb6f2276fc84aed25ab6f820bbdf32e0e632349a"
    ),
    ("shared-persistent", "on-eviction", "pseudo-circular", "3x500"): (
        "1b02dbde44474f447cea36786eaffe7624f2f6fd24b8fdce14fa96b578b56e7e"
    ),
    ("shared-persistent", "on-eviction", "pseudo-circular", "1x1000"): (
        "5100810c688a34c1a67bc9c0655a2f0c648ea336985d39c6fdf0dbced49dd52b"
    ),
    ("shared-persistent", "on-eviction", "lru", "3x500"): (
        "b8da2eb348e4290d022042d4b09f1a8dd8bab1b3988954c65b4e6931e47f4e6a"
    ),
    ("shared-persistent", "on-eviction", "lru", "1x1000"): (
        "3723ebe9191a089424ae24fa77bcb8af336329877cfb02739e2061beb94fadcc"
    ),
    ("shared-persistent-temp", "on-hit", "pseudo-circular", "3x500"): (
        "80bff96deaea691e5b14a641c455c6bb68fc6233ea3db2b3c7356abc4c9ac5ff"
    ),
    ("shared-persistent-temp", "on-hit", "pseudo-circular", "1x1000"): (
        "f5af65601e36481248bf705938b2c3b43c5f7235448a3b55859d5317151bef7e"
    ),
    ("shared-persistent-temp", "on-hit", "lru", "3x500"): (
        "20bad31d14f2028fc077a4f806916f909fddd9ce4b59e45f76e0e1a64162634a"
    ),
    ("shared-persistent-temp", "on-hit", "lru", "1x1000"): (
        "f8f7c748e753892c14998a8b834a1586768f6e0ea9537d9224453066f800ae7c"
    ),
    ("shared-persistent-temp", "on-eviction", "pseudo-circular", "3x500"): (
        "80bff96deaea691e5b14a641c455c6bb68fc6233ea3db2b3c7356abc4c9ac5ff"
    ),
    ("shared-persistent-temp", "on-eviction", "pseudo-circular", "1x1000"): (
        "f5af65601e36481248bf705938b2c3b43c5f7235448a3b55859d5317151bef7e"
    ),
    ("shared-persistent-temp", "on-eviction", "lru", "3x500"): (
        "20bad31d14f2028fc077a4f806916f909fddd9ce4b59e45f76e0e1a64162634a"
    ),
    ("shared-persistent-temp", "on-eviction", "lru", "1x1000"): (
        "f8f7c748e753892c14998a8b834a1586768f6e0ea9537d9224453066f800ae7c"
    ),
    ("shared-all", "on-hit", "pseudo-circular", "3x500"): (
        "5d6dd2d1ad7aa54543099b106cf0466f9ce92f85b971361dd403f40d4251f2a1"
    ),
    ("shared-all", "on-hit", "pseudo-circular", "1x1000"): (
        "94922ebc020c17787f061d1af588623c241236d6ea19e9fa3d7fa725a5cf133a"
    ),
    ("shared-all", "on-hit", "lru", "3x500"): (
        "2b518dcceaf9e8aff9f1b66443d339d6dd7e0475349c9827d8a302ee732e6e54"
    ),
    ("shared-all", "on-hit", "lru", "1x1000"): (
        "43bb69a07062ea78d96b3986dd147f1d9a288f6f8474408262e454a682f37749"
    ),
    ("shared-all", "on-eviction", "pseudo-circular", "3x500"): (
        "93daf72fff83e4034c753820f1c0db061290d37d5d2ef390eeeeafee555b6171"
    ),
    ("shared-all", "on-eviction", "pseudo-circular", "1x1000"): (
        "81fefcb90f5c301e877443212eae9b85e4298bc808b3e5c6cbfd5e4b02d80770"
    ),
    ("shared-all", "on-eviction", "lru", "3x500"): (
        "a6bea5a2e56a464e5f25f596e3ae2041edf051f762fa45913c9d2e6c469dc8ed"
    ),
    ("shared-all", "on-eviction", "lru", "1x1000"): (
        "7f4d311edee438ad0a8ffbcc5853221a23c6f4d1926d5e31d7c182a0f76eefaa"
    ),
}


@pytest.mark.parametrize(
    "variant, mode, local_policy, layout",
    CONFIGURATIONS,
    ids=[
        f"{variant}-{mode.value}-{local_policy}-{layout}"
        for variant, mode, local_policy, layout in CONFIGURATIONS
    ],
)
def test_group_behaviour_matches_golden(variant, mode, local_policy, layout):
    assert group_digest(variant, mode, local_policy, layout) == GOLDEN[
        (variant, mode.value, local_policy, layout)
    ]
