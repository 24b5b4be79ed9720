"""README's *Library quick start* runs as printed, and each record it shows
is the record its statement returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _record_lines(lines, start, stop):
    """The records shown as `# {...}` comment lines in lines[start:stop]."""
    return [ast.literal_eval(line.strip()[1:]) for line in lines[start:stop]
            if line.strip().startswith("# {")]


def test_quick_start_records_match_what_each_statement_returns():
    code = _quick_start()
    lines, body, ns, checked = code.splitlines(), ast.parse(code).body, {}, 0
    for i, statement in enumerate(body):
        if isinstance(statement, ast.Expr):
            result = eval(compile(ast.Expression(statement.value), README.name, "eval"), ns)
        else:
            exec(compile(ast.Module([statement], []), README.name, "exec"), ns)
            targets = [node.id for node in ast.walk(statement) if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Store)]
            result = ns["record"] if "record" in targets else None
        stop = body[i + 1].lineno - 1 if i + 1 < len(body) else len(lines)
        for shown in _record_lines(lines, statement.end_lineno, stop):
            assert shown == result, (ast.unparse(statement), shown, result)
            checked += 1
    assert checked == 3
