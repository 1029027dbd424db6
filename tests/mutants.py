"""Byte-mutation check for input files: every truncation of a good file,
then seeded one-byte substitutions, each written in turn and loaded. A
loader passes if every mutant loads or raises a ``FedmoeError``."""

import numpy as np

from fedmoe.errors import FedmoeError


def assert_every_mutant_loads_or_raises_a_typed_error(path, load, seed: int, substitutions: int = 3000):
    """Mutate the file at ``path`` and call ``load()`` on each mutant; the
    good bytes are written back at the end."""
    good = path.read_bytes()
    rng = np.random.default_rng(seed)
    mutants = [good[:n] for n in range(len(good))]
    for at, byte in zip(rng.integers(0, len(good), size=substitutions), rng.integers(0, 256, size=substitutions)):
        mutants.append(good[:at] + bytes([byte]) + good[at + 1:])
    escapes = []
    for i, blob in enumerate(mutants):
        path.write_bytes(blob)
        try:
            load()
        except FedmoeError:
            pass
        except Exception as e:  # noqa: BLE001 - any other type is the failure under test
            escapes.append(f"mutant {i}: {type(e).__name__}: {e}")
    path.write_bytes(good)
    assert not escapes, f"{len(escapes)} of {len(mutants)} escaped, first: {escapes[:3]}"
