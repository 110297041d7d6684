import pytest

from torsioncalc.sampling import derive_rng, random_connection, random_tensor_field, sample_instance


@pytest.fixture
def rng():
    return derive_rng(20260809, "tests")


def make_instance(seed, label, dim, degree=2, even=True):
    """One seeded (connection, tensor) pair for identity checks."""
    if even:
        _, a, L = sample_instance(seed, label, dim, degree)
        return L, a
    r = derive_rng(seed, label)
    L = random_connection(r, dim, degree)
    return L, random_tensor_field(r, dim, (1, 1), degree)
