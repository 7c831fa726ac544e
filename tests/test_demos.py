"""The quick demos run and print the output pinned here.

Each demo runs in its own interpreter with this checkout's ``src`` on the
path, and its stdout must equal the pinned text, so a change to the public
surface that breaks a demo, or changes what it prints, fails here. Demos 03
and 05 train models and take longer; they are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "01_label_verbalization": (
        "Every format, applied to one record:\n"
        "\n"
        "  title           Albert Einstein\n"
        "  title_desc      Albert Einstein; German-born theoretical physicist (1879–1955)\n"
        "  title_cat       Albert Einstein; occupation: physicist, scientist\n"
        "  title_desc_cat  Albert Einstein; German-born theoretical physicist (1879–1955), occupation: physicist, scientist\n"
        "  title_para100   Albert Einstein; Albert Einstein was a German-born theoretical physicist who is best known for developing the theory of relativity\n"
        "  title_para500   Albert Einstein; Albert Einstein was a German-born theoretical physicist who is best known for developing the theory of relativity. His work is also known for its influence on the philosophy of science.\n"
        "\n"
        "Category relations render inline, semicolon-separated:\n"
        "\n"
        "  Wembley Stadium; instance of: multi-purpose sports venue; country: United Kingdom\n"
        "\n"
        "The title span marks what the label encoder pools:\n"
        "\n"
        "  title_char_span=(0, 15) -> 'Wembley Stadium'\n"
        "\n"
        "Soft truncation cuts before the first punctuation past the limit:\n"
        "\n"
        "  limit  10: 'first clause'\n"
        "  limit  30: 'first clause, second clause, third clause'\n"
        "  limit 200: 'first clause, second clause, third clause, fourth clause'\n"
    ),
    "02_encoding_and_search": (
        "cache: 4 labels x 32 dims\n"
        "\n"
        "mention 'Italy' in 'Italy beat England at rugby in Rome'\n"
        "  nearest label: Italy_rugby  (similarity -2.9182)\n"
        "\n"
        "hard negatives for gold 'Italy_rugby' (most confusable first):\n"
        "  Italy_football   -3.0224\n"
        "  Italy            -3.5482\n"
        "  Wembley          -3.6282\n"
        "\n"
        "the exact scan doubles as its own oracle:\n"
        "  hand-rolled argmax: Italy_rugby  (similarity -2.9182)\n"
        "\n"
        "restricting the allowed set changes the answer deterministically:\n"
        "  allowed={Wembley} -> Wembley  (similarity -3.6282)\n"
    ),
    "04_iterative_prediction": (
        "document: 'aaa likes bbb'\n"
        "\n"
        "one-shot predictions:\n"
        "  'aaa' -> Label_A  (score -0.000)\n"
        "  'bbb' -> Label_One  (score -0.050)\n"
        "\n"
        "iterative run, 2 rounds:\n"
        "  enriched text: 'aaa (shift) likes bbb (Label Two)'\n"
        "  'aaa': Label_A == Label_A  (score -0.000 -> -0.000)\n"
        "  'bbb': Label_One -> Label_Two  (score -0.050 -> -0.000)\n"
        "\n"
        "mention spans in the enriched text: [(0, 3), (18, 21)]\n"
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_prints_the_pinned_output(name):
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert done.stdout.decode("utf-8") == EXPECTED[name]
