"""Corpus bundling, registry integration and spec identity tests."""

import shutil

import pytest

from repro.circuits.registry import build_circuit, circuit_source_path
from repro.errors import ReproError
from repro.frontend import netlist_file_digest, synthesize_testbench
from repro.frontend.corpus import corpus_files, corpus_names, load_corpus_circuit
from repro.netlist.validate import validate_netlist
from repro.run.spec import CampaignSpec

EXPECTED_CORPUS = {"c17", "c432", "c880", "c1355", "s27", "s298", "s344", "s1488"}


class TestCorpus:
    def test_expected_circuits_bundled(self):
        assert EXPECTED_CORPUS <= set(corpus_names())

    def test_every_corpus_file_loads_and_validates(self):
        for name in corpus_names():
            netlist = load_corpus_circuit(name)
            validate_netlist(netlist, allow_dangling=True)
            assert netlist.name == name
            assert all(len(g.inputs) <= 2 for g in netlist.gates.values())

    def test_sequential_corpus_has_flops(self):
        for name in ("s27", "s298", "s344", "s1488"):
            assert load_corpus_circuit(name).num_ffs > 0

    def test_combinational_corpus_has_none(self):
        for name in ("c17", "c432", "c880", "c1355"):
            assert load_corpus_circuit(name).num_ffs == 0

    def test_canonical_s27_shape(self):
        s27 = load_corpus_circuit("s27")
        assert len(s27.inputs) == 4
        assert s27.num_ffs == 3
        assert s27.num_gates == 10

    def test_unknown_corpus_name(self):
        with pytest.raises(ReproError, match="available"):
            load_corpus_circuit("s9999")


class TestRegistry:
    def test_corpus_name_builds(self):
        netlist = build_circuit("corpus:s298")
        assert netlist.name == "s298"
        assert netlist.num_ffs > 0

    def test_file_name_builds(self, tmp_path):
        path = tmp_path / "mine.bench"
        shutil.copy(corpus_files()["s27"], path)
        netlist = build_circuit(f"file:{path}")
        assert netlist.name == "mine"
        assert netlist.num_ffs == 3

    def test_source_path(self, tmp_path):
        assert circuit_source_path("b14") is None
        assert circuit_source_path("corpus:s27").endswith("s27.bench")
        assert circuit_source_path("file:/x/y.bench") == "/x/y.bench"

    def test_missing_file_is_clean_error(self):
        with pytest.raises(ReproError, match="cannot read"):
            build_circuit("file:/nonexistent/path.bench")


class TestSpecIdentity:
    def test_oracle_key_carries_digest_for_imported_only(self):
        plain = CampaignSpec(circuit="b04", technique="mask_scan")
        assert "circuit_digest" not in plain.oracle_key()
        imported = CampaignSpec(circuit="corpus:s298", technique="mask_scan")
        key = imported.oracle_key()
        assert key["circuit_digest"] == netlist_file_digest(
            circuit_source_path("corpus:s298")
        )

    def test_auto_testbench_resolves_to_imported(self):
        spec = CampaignSpec(circuit="corpus:s298", technique="mask_scan")
        assert spec.resolved_testbench_kind() == "imported"
        plain = CampaignSpec(circuit="b04", technique="mask_scan")
        assert plain.resolved_testbench_kind() == "random"

    def test_key_stable_across_reimports_and_changes_on_edit(self, tmp_path):
        path = tmp_path / "c.bench"
        shutil.copy(corpus_files()["s27"], path)
        spec = CampaignSpec(circuit=f"file:{path}", technique="mask_scan")
        first_key, first_id = spec.oracle_key(), spec.campaign_id
        # unchanged file, fresh spec object -> identical identity
        again = CampaignSpec(circuit=f"file:{path}", technique="state_scan")
        assert again.oracle_key() == first_key
        assert again.campaign_id == first_id
        # any content change -> different identity
        path.write_text(path.read_text() + "# touched\n")
        assert spec.oracle_key() != first_key
        assert spec.campaign_id != first_id

    def test_spec_roundtrips_through_json(self, tmp_path):
        path = tmp_path / "c.bench"
        shutil.copy(corpus_files()["s27"], path)
        spec = CampaignSpec(circuit=f"file:{path}", technique="mask_scan")
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_synthesized_testbench_deterministic(self):
        netlist = load_corpus_circuit("s298")
        first = synthesize_testbench(netlist, 64, seed=3)
        second = synthesize_testbench(netlist, 64, seed=3)
        other_seed = synthesize_testbench(netlist, 64, seed=4)
        assert first.vectors == second.vectors
        assert first.vectors != other_seed.vectors
        # warmup walks a one across every input
        width = len(netlist.inputs)
        assert first.vectors[:width] == [1 << i for i in range(width)][: len(first.vectors)]


class TestCampaignEndToEnd:
    def test_corpus_campaign_grades_bit_exactly_across_engines(self):
        from repro.sim.parallel import grade_faults

        spec = CampaignSpec(
            circuit="corpus:s27", technique="mask_scan", num_cycles=32
        )
        scenario = spec.scenario()
        reference = None
        for engine in ("fused", "bigint"):
            result = grade_faults(
                scenario.netlist,
                scenario.testbench,
                scenario.faults,
                backend=engine,
            )
            signature = (
                [int(v) for v in result.fail_cycles],
                [int(v) for v in result.vanish_cycles],
            )
            if reference is None:
                reference = signature
            assert signature == reference, engine

    def test_corpus_campaign_through_runner_and_store(self, tmp_path):
        from repro.run.runner import CampaignRunner

        spec = CampaignSpec(
            circuit="corpus:s27",
            technique="time_multiplexed",
            num_cycles=24,
            fault_model="stuck_at_1",
        )
        runner = CampaignRunner(store_root=str(tmp_path))
        first = runner.run(spec)
        resumed = runner.run(spec)  # resumes, must not change results
        assert first.dictionary.counts() == resumed.dictionary.counts()

    def test_combinational_corpus_campaign_rejected_cleanly(self):
        from repro.errors import CampaignError

        spec = CampaignSpec(circuit="corpus:c17", technique="mask_scan")
        with pytest.raises(CampaignError, match="empty population"):
            spec.scenario()

    def test_combinational_corpus_cli_error_is_clean(self, capsys):
        from repro.run.cli import main

        code = main(["run", "--circuit", "corpus:c17", "--no-store", "--quiet"])
        assert code == 1
        assert "empty population" in capsys.readouterr().err

    def test_file_campaign_cli(self, tmp_path, capsys):
        from repro.run.cli import main

        path = tmp_path / "mine.bench"
        shutil.copy(corpus_files()["s27"], path)
        code = main(
            [
                "run",
                "--circuit", f"file:{path}",
                "--cycles", "24",
                "--no-store",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "on mine:" in out
