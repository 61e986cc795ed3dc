import pytest

from multiharm import sequences


def _sizes(memo):
    if isinstance(memo, sequences._KeyedTables):
        return {key: _sizes(table) for key, table in memo.items()}
    return [len(level) for level in memo.levels]


@pytest.fixture
def memo_sizes():
    """A function that returns the length of every level of every memo in ``sequences._MEMOS``."""
    return lambda: [_sizes(memo) for memo in sequences._MEMOS]
