"""The repo-wide refactor guard: pinned digests and cache keys.

``fixtures/pinned.json`` freezes, at fixed seeds, the engine's result
digests for a spread of scenarios (both engines, every channel and
workload, trial compaction, memory-budget sharding, telemetry), the
expansion pipeline's estimates, every spokesman portfolio member's
answer on seeded boundary graphs, and every pinned scenario's
``scenario_key``.  Replaying them proves a refactor kept results
byte-identical and cache identities unchanged — zero new tolerance.
"""

from __future__ import annotations

import json

import pytest

from make_fixtures import (  # sibling module; pytest adds this dir to sys.path
    EXPANSIONS,
    FIXTURE_PATH,
    PORTFOLIO_CASES,
    SCENARIOS,
    batch_record,
    expansion_record,
    key_record,
    portfolio_record,
)


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_file_covers_every_pin(pinned):
    assert set(pinned["scenarios"]) == set(SCENARIOS)
    assert set(pinned["expansions"]) == {
        f"{graph} :: {expansion} :: seed={seed}"
        for graph, expansion, seed in EXPANSIONS
    }
    assert set(pinned["portfolio"]) == {label for label, _, _ in PORTFOLIO_CASES}
    assert set(pinned["keys"]) == set(SCENARIOS)


@pytest.mark.parametrize("spec", SCENARIOS)
def test_scenario_matches_pinned_digest(pinned, spec):
    from repro.scenario import Scenario

    assert batch_record(Scenario.from_string(spec).run()) == (
        pinned["scenarios"][spec]
    )


@pytest.mark.parametrize("graph,expansion,seed", EXPANSIONS)
def test_expansion_matches_pinned_digest(pinned, graph, expansion, seed):
    key = f"{graph} :: {expansion} :: seed={seed}"
    assert expansion_record(graph, expansion, seed) == pinned["expansions"][key]


@pytest.mark.parametrize("label,seed,size", PORTFOLIO_CASES)
def test_portfolio_members_match_pin(pinned, label, seed, size):
    assert portfolio_record(seed, size) == pinned["portfolio"][label]


@pytest.mark.parametrize("spec", SCENARIOS)
def test_scenario_key_matches_pin(pinned, spec):
    assert key_record(spec) == pinned["keys"][spec]
