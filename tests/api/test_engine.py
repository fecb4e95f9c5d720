"""Every engine alias against the cold-session oracle, plus engine wiring.

All five ``--engine`` names build the same engine over one of three
transports (inline, pool, TCP).  The differential below holds each alias
to the classification fingerprint of a cold, non-checkpointing
``Session().run(spec)``, for every method on RF and SQ.
"""

import threading

import pytest

from repro.api import (
    ENGINES,
    METHODS,
    CampaignSpec,
    ResultStore,
    Session,
    config_axis,
    make_engine,
    sweep,
)
from repro.cluster import ClusterEngine, ShardExecutor
from repro.cluster.agent import AgentServer
from repro.cluster.transport import TcpAgentTransport
from repro.testing import small_config
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import TargetStructure

#: (structure, workload) pairs with nonzero AVF at this size, so a wrong
#: classification can actually show in the fingerprint.
TARGETS = [(TargetStructure.RF, "sha"), (TargetStructure.SQ, "cjpeg")]

CELLS = [(method, structure, workload)
         for method in METHODS for structure, workload in TARGETS]


def cell_spec(method, structure, workload):
    return CampaignSpec(workload=workload, structure=structure,
                        config=small_config(), scale=1, faults=30, seed=5,
                        method=method)


def tiny_sweep():
    return sweep(
        ["sha", "qsort"],
        structures=("RF",),
        configs=config_axis(registers=(64,)),
        faults=40,
        scale=1,
        seed=0,
    )


@pytest.fixture
def agent(tmp_path):
    """A real agent on a localhost port, serving the ``remote`` alias."""
    server = AgentServer(cache_dir=str(tmp_path / "agent"),
                         heartbeat_interval=0.05)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def alias_caches(tmp_path_factory):
    """One cache directory per alias, shared by that alias's cells."""
    return {alias: tmp_path_factory.mktemp(f"cache-{alias}")
            for alias in ENGINES}


@pytest.fixture(scope="module")
def oracle():
    session = Session()
    return {cell: session.run(cell_spec(*cell)).classification_fingerprint()
            for cell in CELLS}


@pytest.fixture
def build(request):
    """``make_engine`` for an alias; ``remote`` gets a live agent.

    The agent thread is started only for the remote alias, so the pool
    aliases never fork a multi-threaded process.
    """

    def make(alias, cache_dir, **kwargs):
        hosts = None
        if alias == "remote":
            agent = request.getfixturevalue("agent")
            hosts = f"127.0.0.1:{agent.address[1]}"
        return make_engine(alias, cache_dir=str(cache_dir), hosts=hosts,
                           **kwargs)

    return make


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: f"{cell[0]}-{cell[1].name}")
@pytest.mark.parametrize("alias", ENGINES)
def test_every_alias_matches_the_cold_session_oracle(
        alias, cell, oracle, alias_caches, build):
    engine = build(alias, alias_caches[alias], shard_size=7)
    outcome = engine.run([cell_spec(*cell)])[0]
    assert outcome.run_id == cell_spec(*cell).run_id()
    assert outcome.classification_fingerprint() == oracle[cell]
    assert engine.stats["shards_executed"] == engine.stats["shards_total"] >= 1


@pytest.mark.parametrize("alias", ENGINES)
def test_batches_keep_input_order_and_persist_to_the_store(
        alias, tmp_path, build):
    specs = tiny_sweep()
    store = ResultStore(tmp_path / "store")
    outcomes = build(alias, tmp_path / "cache").run(specs, store=store)
    assert [outcome.spec for outcome in outcomes] == specs
    assert sorted(store.run_ids()) == sorted(spec.run_id() for spec in specs)

    again = build(alias, tmp_path / "cache")
    reloaded = again.run(specs, store=store)
    assert again.stats["campaigns_from_store"] == len(specs)
    assert again.stats["shards_executed"] == 0
    assert [outcome.to_dict() for outcome in reloaded] == [
        outcome.to_dict() for outcome in outcomes]


@pytest.mark.parametrize("alias", ENGINES)
def test_empty_batch(alias, tmp_path, build):
    assert build(alias, tmp_path / "cache").run([]) == []


def test_aliases_pick_their_transport(tmp_path):
    for alias in ("serial", "checkpoint"):
        assert make_engine(alias).transport == "inline"
    for alias in ("process", "cluster"):
        assert make_engine(alias, max_workers=3).transport == "pool"
    remote = make_engine("remote", hosts="127.0.0.1:7651")
    assert isinstance(remote, ClusterEngine)
    assert isinstance(remote.transport, TcpAgentTransport)
    # Checkpoint spacing, shard size, cache and resume apply to every alias.
    engine = make_engine("serial", checkpoint_interval=50, shard_size=9,
                         cache_dir=str(tmp_path), resume=True)
    assert (engine.checkpoint_interval, engine.shard_size) == (50, 9)
    assert engine.journal_dir == tmp_path / "journals" and engine.resume
    with pytest.raises(ValueError, match="unknown engine"):
        make_engine("distributed")
    with pytest.raises(ValueError, match=">= 1"):
        make_engine("checkpoint", checkpoint_interval=0)


def test_the_two_flag_rules():
    """``hosts`` applies only to remote; ``workers`` only to the pool."""
    for alias in ("serial", "process", "checkpoint", "cluster"):
        with pytest.raises(ValueError, match="hosts only applies"):
            make_engine(alias, hosts="127.0.0.1:7651")
    for alias in ("serial", "checkpoint"):
        with pytest.raises(ValueError, match="workers only applies"):
            make_engine(alias, max_workers=2)
    with pytest.raises(ValueError, match="workers only applies"):
        make_engine("remote", hosts="127.0.0.1:7651", max_workers=4)
    with pytest.raises(ValueError, match="--hosts"):
        make_engine("remote")


@pytest.mark.parametrize("alias", ["serial", "process"])
def test_shard_failure_surfaces_promptly_and_chains_its_cause(
        alias, tmp_path, monkeypatch):
    """A shard raising mid-campaign must raise in the caller, promptly,
    naming the campaign and chaining the original exception — on the
    inline transport and across the pool's process boundary alike."""

    def boom(self, spec, shard, checkpoint_interval):
        raise RuntimeError("injected shard failure")

    # Fork-started pool workers inherit the patched class.
    monkeypatch.setattr(ShardExecutor, "execute", boom)
    specs = tiny_sweep()
    kwargs = {"max_workers": 2} if alias == "process" else {}
    with pytest.raises(RuntimeError, match="failed in a worker") as failure:
        make_engine(alias, cache_dir=str(tmp_path / "cache"), shard_size=5,
                    **kwargs).run(specs)
    assert failure.value.__cause__ is not None
    assert "injected shard failure" in str(failure.value)
    assert any(spec.run_id() in str(failure.value) for spec in specs)


def test_sweep_expands_cross_product():
    specs = sweep(
        ["sha", "qsort"],
        structures=("RF", "SQ"),
        configs=config_axis(registers=(128, 64)),
        faults=40,
    )
    assert len(specs) == 2 * 2 * 2
    assert len({spec.run_id() for spec in specs}) == len(specs)
    # Workload-major ordering keeps each workload's campaigns adjacent.
    assert [spec.workload for spec in specs[:4]] == ["sha"] * 4


def test_sweep_rejects_unknown_structure():
    with pytest.raises(ValueError):
        sweep(["sha"], structures=("ROB",))


def test_config_axis_combinations():
    assert config_axis() == [MicroarchConfig()]
    axis = config_axis(registers=(128, 64), sq_entries=(16,))
    assert len(axis) == 2
    assert {config.num_phys_int_regs for config in axis} == {128, 64}
    assert all(config.store_queue_entries == 16 for config in axis)


def test_store_listing_and_delete(tmp_path):
    store = ResultStore(tmp_path / "store")
    specs = tiny_sweep()[:1]
    outcomes = make_engine("serial", cache_dir=str(tmp_path / "cache")).run(
        specs, store=store)
    run_id = outcomes[0].run_id
    assert store.run_ids() == [run_id]
    assert len(store) == 1
    loaded = list(store)[0]
    assert loaded.to_dict() == outcomes[0].to_dict()
    assert store.delete(run_id)
    assert not store.delete(run_id)
    assert store.get(run_id) is None
    with pytest.raises(ValueError):
        store.has("../escape")
