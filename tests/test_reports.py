from jumpsde.harness import (
    ConvergenceReport,
    MomentReport,
    MomentRow,
    PositivityCell,
    PositivityReport,
)
from jumpsde.reports import (
    write_convergence_reports,
    write_moment_report,
    write_positivity_report,
)

ECHO = {"n_paths": 10, "jump": "linear:-0.5", "model": {"T": 1.0}}

CONVERGENCE = {
    "tjabem": ConvergenceReport(
        "tjabem", (4, 8), (0.25, 0.125), (0.02, 0.01), (0.002, 0.001),
        (0.03, 0.0125), 1.0, -1.0 / 3, 0.875, 10, 64, 7, (True,),
    ),
    "bem": ConvergenceReport(
        "bem", (4, 8), (0.25, 0.125), (0.5, 0.25), (0.05, 0.1), (0.625, 0.375),
        0.5, 0.1, 1.0, 10, 64, 7, (False,),
    ),
}
POSITIVITY = PositivityReport(
    (
        PositivityCell("set1", "linear:-0.5", 0.125, 90, 0),
        PositivityCell("set2", "sine:1", 0.1, 30, 3),
    ),
    1.5, 10, 7,
)
MOMENTS = MomentReport(
    (
        MomentRow(2.0, 1.25, 0.125, 1.0 / 3, 0.01),
        MomentRow(-1.0, 1.5, 0.0, 0.75, 1e-17),
    ),
    16, 10, 7,
)


def _csv(*rows: str) -> bytes:
    # csv.writer ends every row with \r\n
    return "".join(row + "\r\n" for row in rows).encode()


def _json(*lines: str) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


CONFIG_JSON = (
    '  "config": {',
    '    "jump": "linear:-0.5",',
    '    "model": {',
    '      "T": 1.0',
    "    },",
    '    "n_paths": 10',
    "  },",
)


def _scheme_json(name, errors, l2, intercept, monotone, r2, slope, stderr, last):
    return (
        f'    "{name}": {{',
        '      "dt": [',
        "        0.25,",
        "        0.125",
        "      ],",
        '      "error_l1": [',
        f"        {errors[0]},",
        f"        {errors[1]}",
        "      ],",
        '      "error_l2": [',
        f"        {l2[0]},",
        f"        {l2[1]}",
        "      ],",
        '      "global_seed": 7,',
        f'      "intercept": {intercept},',
        '      "m_list": [',
        "        4,",
        "        8",
        "      ],",
        '      "m_ref": 64,',
        '      "monotone_pairs": [',
        f"        {monotone}",
        "      ],",
        '      "n_paths": 10,',
        f'      "r_squared": {r2},',
        f'      "slope": {slope},',
        '      "stderr": [',
        f"        {stderr[0]},",
        f"        {stderr[1]}",
        "      ]",
        "    }" if last else "    },",
    )


EXPECTED = {
    "convergence.csv": _csv(
        "scheme,dt,error_l1,stderr,error_l2,n_paths",
        "tjabem,0.25,0.02,0.002,0.03,10",
        "tjabem,0.125,0.01,0.001,0.0125,10",
        "bem,0.25,0.5,0.05,0.625,10",
        "bem,0.125,0.25,0.1,0.375,10",
    ),
    "convergence.json": _json(
        "{",
        *CONFIG_JSON,
        '  "schemes": {',
        *_scheme_json("bem", (0.5, 0.25), (0.625, 0.375), 0.1, "false", 1.0,
                      0.5, (0.05, 0.1), last=False),
        *_scheme_json("tjabem", (0.02, 0.01), (0.03, 0.0125),
                      -0.3333333333333333, "true", 0.875, 1.0, (0.002, 0.001),
                      last=True),
        "  }",
        "}",
    ),
    "plotdata_tjabem.csv": _csv(
        "log2_dt,log2_error,log2_ref",
        "-2.0,-5.643856189774724,-5.643856189774724",
        "-3.0,-6.643856189774724,-6.643856189774724",
    ),
    "plotdata_bem.csv": _csv(
        "log2_dt,log2_error,log2_ref",
        "-2.0,-1.0,-1.0",
        "-3.0,-2.0,-2.0",
    ),
    "positivity.csv": _csv(
        "param_set,h_family,dt,n_values,n_nonpositive,percent",
        "set1,linear:-0.5,0.125,90,0,0.0",
        "set2,sine:1,0.1,30,3,10.0",
    ),
    "positivity.json": _json(
        "{",
        '  "cells": [',
        "    {",
        '      "dt": 0.125,',
        '      "h_family": "linear:-0.5",',
        '      "n_nonpositive": 0,',
        '      "n_values": 90,',
        '      "param_set": "set1",',
        '      "percent": 0.0',
        "    },",
        "    {",
        '      "dt": 0.1,',
        '      "h_family": "sine:1",',
        '      "n_nonpositive": 3,',
        '      "n_values": 30,',
        '      "param_set": "set2",',
        '      "percent": 10.0',
        "    }",
        "  ],",
        *CONFIG_JSON,
        '  "global_seed": 7,',
        '  "lam": 1.5,',
        '  "n_paths": 10',
        "}",
    ),
    "moments.csv": _csv(
        "p,sup_moment,sup_stderr,terminal_moment,terminal_stderr,n_paths",
        "2.0,1.25,0.125,0.3333333333333333,0.01,10",
        "-1.0,1.5,0.0,0.75,1e-17,10",
    ),
    "moments.json": _json(
        "{",
        '  "M": 16,',
        *CONFIG_JSON,
        '  "global_seed": 7,',
        '  "n_paths": 10,',
        '  "rows": [',
        "    {",
        '      "p": 2.0,',
        '      "sup_moment": 1.25,',
        '      "sup_stderr": 0.125,',
        '      "terminal_moment": 0.3333333333333333,',
        '      "terminal_stderr": 0.01',
        "    },",
        "    {",
        '      "p": -1.0,',
        '      "sup_moment": 1.5,',
        '      "sup_stderr": 0.0,',
        '      "terminal_moment": 0.75,',
        '      "terminal_stderr": 1e-17',
        "    }",
        "  ]",
        "}",
    ),
}


def test_writers_produce_expected_bytes(tmp_path):
    written = write_convergence_reports(CONVERGENCE, tmp_path, ECHO)
    written += write_positivity_report(POSITIVITY, tmp_path, ECHO)
    written += write_moment_report(MOMENTS, tmp_path, ECHO)
    # the writers return their files in writing order, then the CLI prints them
    assert [path.name for path in written] == list(EXPECTED)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPECTED)
    for name, expected in EXPECTED.items():
        assert (tmp_path / name).read_bytes() == expected, name
