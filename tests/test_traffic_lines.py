"""The traffic-lines tool: what the commands and benchmark operations reach."""

import importlib
import inspect

import bifrost as bf
import traffic_lines

sld_module = importlib.import_module("bifrost.sld")  # the package exports a function ``sld``


def _lines(function) -> range:
    """The lines of ``function``'s source, its signature and docstring too."""
    source, start = inspect.getsourcelines(function)
    return range(start, start + len(source))


def test_traffic_lines_lists_library_only_code(capsys):
    """``ratio_high_reflectivity`` is reached by the library only, so its
    body is listed whole. The Williamson solve serves every Gaussian QFI:
    of its lines only the pure-mode regularisation is listed, which needs
    a state with a pure normal mode, such as the coherent probe at
    n_th = 0, and no command reaches at its defaults."""
    traffic_lines.main()
    listed = {}
    for row in capsys.readouterr().out.splitlines():
        path, line, *_ = row.split(":")
        if line.isdigit():
            listed.setdefault(path, set()).add(int(line))
    qfi_text = inspect.getsource(importlib.import_module("bifrost.qfi"))
    expected = set(_lines(bf.ratio_high_reflectivity)) & traffic_lines._body_lines(qfi_text)
    assert expected and expected <= listed["src/bifrost/qfi.py"]
    source, start = inspect.getsourcelines(sld_module._solve)
    first = start + next(i for i, text in enumerate(source) if "if pure.any():" in text)
    last = start + next(i for i, text in enumerate(source) if "den = np.where(pure" in text)
    assert listed["src/bifrost/sld.py"] & set(_lines(sld_module._solve)) <= set(range(first, last + 1))
