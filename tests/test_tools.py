import importlib.util
from pathlib import Path
from types import SimpleNamespace

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ops_per_round.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ops_per_round", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def work(n):
    total = 0
    for i in range(n):
        total += i
    return total


def test_ops_per_round_counts_each_job_the_same_every_time():
    # the count is per job, in order, repeats exactly, and grows with the
    # bytecode a job runs, nested calls included
    tool = load_tool()
    jobs = [SimpleNamespace(name="small", run=lambda: work(10)),
            SimpleNamespace(name="large", run=lambda: work(1000)),
            SimpleNamespace(name="nested", run=lambda: [work(10)] * 2)]
    first = tool.count_round(jobs)
    assert first == tool.count_round(jobs)
    assert [name for name, _ in first] == ["small", "large", "nested"]
    small, large, nested = (n for _, n in first)
    assert 0 < small < nested < large
