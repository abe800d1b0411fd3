"""The README's CLI walkthrough and Python API example run as written."""

import ast
import re
import shlex
from pathlib import Path

from slidegar.cli import main
from slidegar.corpus_store import ingest_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    # the inputs of the README's CLI walkthrough, under the paths the example reads
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "data/demo", "--seed", "7"]) == 0
    assert main([
        "build-graph", "--corpus", "data/demo/corpus.tsv", "--source", "dense",
        "--embeddings", "data/demo/embeddings.bin", "--k", "16", "--out", "data/demo/graph.bin",
    ]) == 0
    store = ingest_corpus("data/demo/corpus.tsv")
    capsys.readouterr()
    exec(compile(block, str(README), "exec"), {})
    calls, attempts, top = capsys.readouterr().out.split(" ", 2)
    assert int(calls) == int(attempts) == 4  # ceil((50 - 20) / 10) + 1, one attempt each
    top = ast.literal_eval(top)
    assert len(top) == 10 and all(docno in store.id_of for docno in top)


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    # the walkthrough, then the deduplication example over its data
    blocks = [re.findall(rf"{heading}\n.*?```bash\n(.*?)```", text, re.S)[0]
              for heading in ("## CLI walkthrough", "### Deduplicating a corpus")]
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    commands = []
    while lines:
        line = lines.pop(0)
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            end = lines.index("EOF")
            Path(heredoc[1]).write_text("\n".join(lines[:end]) + "\n", encoding="utf-8")
            del lines[: end + 1]
        elif line.strip():
            commands.append(shlex.split(line))
    assert commands and all(argv[0] == "slidegar" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert Path("runs/slidegar.trec").exists()
    assert Path("data/dedup/corpus.tsv").read_bytes() == Path("data/demo/corpus.tsv").read_bytes()  # synth writes no twins
    assert Path("data/dedup/index/docnos.txt").exists()
