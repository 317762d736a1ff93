import hashlib

import pytest

from metadr import hashline


@pytest.fixture
def sha256_calls(monkeypatch):
    """The lengths hashed through `hashline._sha256`, the one SHA-256
    entry point, while the test runs."""
    calls = []

    def counting(data=b""):
        calls.append(len(data))
        return hashlib.sha256(data)

    monkeypatch.setattr(hashline, "_sha256", counting)
    return calls
