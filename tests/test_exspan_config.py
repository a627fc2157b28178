"""ExspanConfig validation and the one-config constructor.

The consolidation contract: every constructor knob lives on one frozen,
validated ``ExspanConfig``; ``ExspanNetwork`` takes that config (plus the
``tracer`` wiring) and rejects any other keyword.
"""

import dataclasses

import pytest

from repro.core.api import ExspanNetwork
from repro.core.config import ExspanConfig
from repro.core.errors import ProvenanceError
from repro.core.modes import ProvenanceMode
from repro.net.errors import NetworkError
from repro.net.sharding import ShardedExspanNetwork
from repro.net.topology import ring_topology
from repro.protocols.mincost import mincost_program


class TestValidation:
    def test_defaults(self):
        config = ExspanConfig()
        assert config.mode is ProvenanceMode.REFERENCE
        assert config.seed == 0
        assert config.query_coalescing is True

    def test_frozen(self):
        config = ExspanConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 7

    def test_mode_coercion_from_string(self):
        assert ExspanConfig(mode="none").mode is ProvenanceMode.NONE
        assert ExspanConfig(mode="ref").mode is ProvenanceMode.REFERENCE
        assert ExspanConfig(mode="reference").mode is ProvenanceMode.REFERENCE
        assert ExspanConfig(mode="value").mode is ProvenanceMode.VALUE
        assert ExspanConfig(mode="centralized").mode is ProvenanceMode.CENTRALIZED

    def test_bad_mode_rejected(self):
        with pytest.raises(ProvenanceError):
            ExspanConfig(mode="bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_cost": "cheap"},
            {"value_policy": "magic"},
            {"planner": "quantum"},
            {"pipeline": "hyperloop"},
            {"query_cache_capacity": -1},
            {"compact_min_cancelled": -2},
            {"compact_ratio": 0},
            {"query_coalescing": "yes"},
            {"local_addresses": ("n0",)},  # requires shard_map too
        ],
    )
    def test_invalid_combinations_rejected(self, kwargs):
        with pytest.raises(ProvenanceError):
            ExspanConfig(**kwargs)

    def test_round_trip_through_dict(self):
        config = ExspanConfig(mode="value", seed=3, planner="greedy", query_batching=False)
        clone = ExspanConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ProvenanceError):
            ExspanConfig.from_dict({"mode": "ref", "warp_drive": True})

    def test_replace(self):
        config = ExspanConfig(seed=1)
        assert config.replace(seed=9).seed == 9
        assert config.seed == 1


class TestDeprecationShim:
    def test_config_plus_kwargs_is_an_error(self):
        with pytest.raises(TypeError):
            ExspanNetwork(
                ring_topology(4, seed=0),
                mincost_program(),
                config=ExspanConfig(),
                seed=1,
            )

    def test_unknown_kwarg_is_an_error(self):
        with pytest.raises(TypeError):
            ExspanNetwork(ring_topology(4, seed=0), mincost_program(), warp_drive=True)

    @pytest.mark.parametrize("network_class", [ExspanNetwork, ShardedExspanNetwork])
    def test_config_must_be_an_exspan_config(self, network_class):
        # A mode in the config slot fails at the call, naming ``config``.
        with pytest.raises(TypeError, match="config"):
            network_class(ring_topology(4, seed=0), mincost_program(), ProvenanceMode.NONE)

    def test_sharded_driver_rejects_placement_in_config(self):
        topology = ring_topology(4, seed=0)
        placed = ExspanConfig(
            local_addresses=("n0",), shard_map={node: 0 for node in topology.nodes}
        )
        with pytest.raises(NetworkError, match="local_addresses"):
            ShardedExspanNetwork(topology, mincost_program(), placed)
