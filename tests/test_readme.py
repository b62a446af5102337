import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    # the README's library example is executed as written, so its calls
    # keep the signatures of the code
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    num_irs = names["config"].num_irs
    assert names["result"].rates.shape == (4, 4)
    assert names["angles"].shape == (2, num_irs, 4)
    assert names["losses"].shape == (2, num_irs)
    assert np.isfinite(names["losses"]).all()
