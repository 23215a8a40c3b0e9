"""Every module of ``src/remodyc`` stays under 8,192 code tokens.

Past that many tokens, compiling ``interp.py`` took a step of ~0.46 MB in
its peak memory, which every benchmark workload's ``peak_rss_mb`` pays
where no bytecode is cached.  Code tokens are what ``tokenize`` gives,
comments and non-logical newlines left out.
"""
from __future__ import annotations

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "remodyc"
TOKEN_STEP = 8192


def code_tokens(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(token.type not in (tokenize.COMMENT, tokenize.NL)
                   for token in tokenize.generate_tokens(handle.readline))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_is_under_the_token_step(path):
    assert 0 < code_tokens(path) < TOKEN_STEP
