"""The README's and the tutorial's code snippets must actually run.

Documentation that silently rots is worse than none; this module executes
the README's quickstart snippet and checks the claims the README makes
around it, and runs every README and tutorial snippet in order.
"""

import re
from pathlib import Path


README = Path(__file__).resolve().parents[2] / "README.md"
TUTORIAL = README.parent / "docs" / "tutorial.md"


def extract_python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_executes(self):
        blocks = extract_python_blocks(README.read_text(encoding="utf-8"))
        assert blocks, "README lost its quickstart code block"
        namespace = {}
        exec(compile(blocks[0], "README.md", "exec"), namespace)  # noqa: S102
        engine = namespace["engine"]
        # The claims made next to the snippet:
        assert engine.relevance("Tom", "KDD", "APC") > 0
        assert engine.top_k("Tom", "APC", k=1)[0][0] == "KDD"

    def test_every_python_block_runs_in_order(self):
        """The README reads as one script: the measures block scores on
        the quickstart block's engine."""
        blocks = extract_python_blocks(README.read_text(encoding="utf-8"))
        assert len(blocks) >= 2, "README lost its measures code block"
        namespace = {}
        for number, block in enumerate(blocks):
            code = compile(block, f"README.md block {number}", "exec")
            exec(code, namespace)  # noqa: S102
        assert namespace["fit"].spec

    def test_referenced_files_exist(self):
        text = README.read_text(encoding="utf-8")
        root = README.parent
        for name in (
            "DESIGN.md", "EXPERIMENTS.md", "docs/paper_mapping.md",
            "docs/tutorial.md", "docs/api.md",
        ):
            assert name in text
            assert (root / name).exists(), f"README references missing {name}"
        for match in re.findall(r"`examples/(\w+\.py)`", text):
            assert (root / "examples" / match).exists(), match

    def test_cli_commands_mentioned_exist(self):
        """Every `python -m repro.cli <cmd>` line names a real command."""
        import repro.cli as cli

        parser = cli._build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        available = set(subparsers.choices)
        text = README.read_text(encoding="utf-8")
        used = set(re.findall(r"python -m repro\.cli ([\w-]+)", text))
        assert used <= available, used - available

    def test_experiment_ids_mentioned_are_registered(self):
        from repro.experiments.registry import all_experiments

        registered = set(all_experiments())
        text = README.read_text(encoding="utf-8")
        for experiment_id in re.findall(
            r"python -m repro\.experiments (\w+)", text
        ):
            if experiment_id in ("list", "all", "report"):
                continue
            assert experiment_id in registered


class TestTutorial:
    def test_every_block_runs_in_order(self, tmp_path, monkeypatch):
        """The tutorial reads as one script: later blocks use earlier names,
        and the blocks that persist data write into the working
        directory."""
        blocks = extract_python_blocks(TUTORIAL.read_text(encoding="utf-8"))
        assert len(blocks) >= 10, "the tutorial lost code blocks"
        monkeypatch.chdir(tmp_path)
        namespace = {}
        for number, block in enumerate(blocks):
            code = compile(block, f"docs/tutorial.md block {number}", "exec")
            exec(code, namespace)  # noqa: S102
        assert 0.0 <= namespace["result"].auc <= 1.0
