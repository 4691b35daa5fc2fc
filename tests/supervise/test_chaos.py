"""Seeded chaos injection: parsing, determinism, and the enospc hook."""

from __future__ import annotations

import errno

import pytest

from repro.supervise import chaos
from repro.supervise.chaos import (CHAOS_KINDS, ChaosConfig,
                                   chaos_from_env, maybe_chaos_enospc)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in ("REPRO_CHAOS", "REPRO_CHAOS_SEED", "REPRO_CHAOS_HANG_S"):
        monkeypatch.delenv(var, raising=False)


class TestParse:
    def test_off_by_default(self):
        assert chaos_from_env() is None

    @pytest.mark.parametrize("value", ["", "off", "0", "none", "FALSE",
                                       " disabled "])
    def test_off_spellings(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHAOS", value)
        assert chaos_from_env() is None

    def test_rates_and_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS",
                           "kill:0.15, hang:0.05 ,enospc:0.02")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "1337")
        config = chaos_from_env()
        assert config.rates == {"kill": 0.15, "hang": 0.05,
                                "enospc": 0.02}
        assert config.seed == 1337

    def test_bare_kind_means_certainty(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill")
        assert chaos_from_env().rates == {"kill": 1.0}

    def test_hang_seconds_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "hang:1")
        monkeypatch.setenv("REPRO_CHAOS_HANG_S", "0.25")
        assert chaos_from_env().hang_seconds == 0.25

    @pytest.mark.parametrize("spec", ["oom:0.5", "kill:lots",
                                      "kill:1.5", "kill:-0.1"])
    def test_bad_specs_rejected(self, monkeypatch, spec):
        monkeypatch.setenv("REPRO_CHAOS", spec)
        with pytest.raises(ValueError):
            chaos_from_env()

    def test_memoized_on_raw_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:0.5")
        first = chaos_from_env()
        assert chaos_from_env() is first          # same env, same object
        monkeypatch.setenv("REPRO_CHAOS_SEED", "9")
        assert chaos_from_env() is not first      # env change re-parses
        assert chaos_from_env().seed == 9


class TestDecide:
    def test_deterministic_and_stateless(self):
        config = ChaosConfig(rates={"kill": 0.5}, seed=42)
        draws = [config.decide("kill", f"cell-{i}#1") for i in range(64)]
        again = [config.decide("kill", f"cell-{i}#1") for i in range(64)]
        assert draws == again
        assert any(draws) and not all(draws)

    def test_rate_edges(self):
        on = ChaosConfig(rates={"kill": 1.0}, seed=0)
        off = ChaosConfig(rates={"kill": 0.0}, seed=0)
        assert all(on.decide("kill", f"k{i}") for i in range(16))
        assert not any(off.decide("kill", f"k{i}") for i in range(16))
        assert not on.decide("hang", "k0")   # unconfigured kind

    def test_frequency_tracks_rate(self):
        config = ChaosConfig(rates={"kill": 0.25}, seed=7)
        hits = sum(config.decide("kill", f"cell-{i}#1")
                   for i in range(4000))
        assert 0.20 < hits / 4000 < 0.30

    def test_seed_changes_the_pattern(self):
        a = ChaosConfig(rates={"kill": 0.5}, seed=1)
        b = ChaosConfig(rates={"kill": 0.5}, seed=2)
        keys = [f"cell-{i}#1" for i in range(256)]
        assert ([a.decide("kill", k) for k in keys]
                != [b.decide("kill", k) for k in keys])

    def test_retry_is_a_fresh_coin_flip(self):
        """Attempt number is part of the key: a killed cell is not
        deterministically killed again on its retry."""
        config = ChaosConfig(rates={"kill": 0.5}, seed=0)
        differs = any(
            config.decide("kill", f"cell-{i}#1")
            != config.decide("kill", f"cell-{i}#2")
            for i in range(64))
        assert differs

    def test_kinds_are_independent(self):
        config = ChaosConfig(rates={"kill": 0.5, "hang": 0.5}, seed=0)
        keys = [f"cell-{i}#1" for i in range(256)]
        assert ([config.decide("kill", k) for k in keys]
                != [config.decide("hang", k) for k in keys])


class TestWorkerEntry:
    def test_one_decision_per_dispatch(self, monkeypatch):
        """A lane group of 19 cells dies at the kill rate, keyed on its
        first cell and the attempt, not once per cell."""
        from types import SimpleNamespace
        monkeypatch.setenv("REPRO_CHAOS", "kill:0.15")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "1337")
        kills = []
        monkeypatch.setattr(chaos.os, "kill",
                            lambda pid, sig: kills.append(pid))
        config = chaos_from_env()
        dispatches = 2000
        for i in range(dispatches):
            group = [SimpleNamespace(cell_id=f"g{i}-lane{k}")
                     for k in range(19)]
            before = len(kills)
            chaos.chaos_worker_entry(group, 1)
            assert (len(kills) > before) == config.decide("kill",
                                                          f"g{i}-lane0#1")
        assert 0.12 < len(kills) / dispatches < 0.18


class TestEnospcHook:
    def test_noop_when_off(self):
        maybe_chaos_enospc("cell-a")    # must not raise

    def test_raises_full_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "enospc:1")
        with pytest.raises(OSError) as excinfo:
            maybe_chaos_enospc("cell-a")
        assert excinfo.value.errno == errno.ENOSPC

    def test_other_kinds_do_not_fire_enospc(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill:1,hang:1")
        maybe_chaos_enospc("cell-a")    # must not raise


def test_kind_registry_is_exactly_the_documented_three():
    assert CHAOS_KINDS == ("kill", "hang", "enospc")
    assert chaos.__all__  # the module is part of the public surface
