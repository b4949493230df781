"""Contract tests for the top-level public API."""

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_no_private_leaks(self):
        assert all(not n.startswith("_") or n == "__version__" for n in repro.__all__)

    def test_readme_quickstart_snippet(self):
        """The README's quickstart must actually work (tiny scale)."""
        from repro import ELOSS, CellSpec, WorkloadSpec, run_spec

        cell = CellSpec.make(WorkloadSpec.make("KTH-SP2", n_jobs=150), *ELOSS)
        assert run_spec(cell).avebsld >= 1.0

    def test_module_docstring_campaign_snippet(self):
        """The package docstring's campaign tour (tiny scale)."""
        from repro import EASY, leave_one_out, run_cells
        from repro.spec import expand_spec_obj, load_spec_file, override_campaign

        doc = override_campaign(
            load_spec_file("experiments/paper.toml"),
            logs=["KTH-SP2", "CTC-SP2"], n_jobs=80, replicas=1,
        )
        campaign = run_cells(expand_spec_obj(doc), workers=2)
        rows = campaign.table1_rows()
        assert len(rows) == 2
        assert len(leave_one_out(campaign)) == 2
        assert campaign.mean("KTH-SP2", EASY) == rows[0][1]
        assert campaign.mean(
            "KTH-SP2", ("ave2", "incremental", "easy-sjbf")
        ) == campaign.table6_rows()[0][4]

    def test_registries_cover_campaign_triples(self):
        """Every paper triple must be buildable from the registries."""
        from repro import expand_spec_file

        seen = set()
        for cell in expand_spec_file("experiments/paper.toml"):
            if cell.components in seen:
                continue
            seen.add(cell.components)
            scheduler, predictor, corrector = cell.components.build()
            assert scheduler is not None and predictor is not None
        assert len(seen) == 130
