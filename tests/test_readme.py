"""The README's Python quick tour runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    exec(compile(text[start:text.index("```", start)], "README.md", "exec"),
         {})
