"""Smoke test: the full experiment harness regenerates everything."""

from repro.experiments.runner import EXPERIMENTS, main


class TestRunnerAll:
    def test_all_quick_regenerates_every_artifact(self, capsys):
        """One pass over every registered experiment at QUICK settings.

        This is the repository's end-to-end gate: every paper table/figure,
        every ablation and every extension experiment must run and print a
        titled artifact.
        """
        assert main(["all", "--quick", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for marker in (
            "Table 2",
            "Table 3",
            "Table 4",
            "Figure 1",
            "Figure 2",
            "Figure 2 (simulated)",
            "Figure 3",
            "Figure 4",
            "Ablation A1",
            "Ablation A2",
            "Ablation A3",
            "Ablation A4",
            "Extension E1",
            "Extension E2",
            "Extension E3",
            "Extension E4",
            "Extension E5",
            "Extension E6",
            "Spot market:",
            "Pricing study",
            "Reproducibility R1",
        ):
            assert marker in out, f"missing artifact: {marker}"
        # Every registered experiment reported a timing line.
        for name in EXPERIMENTS:
            assert f"[{name}:" in out, name
