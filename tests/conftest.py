import pytest

from whitefact.factors import CyclicBackend, FactorSystem, IntBackend, TableBackend


def _compose_perms(p, q):
    # product p.q applies q first: (p.q)(x) = p(q(x)), permutations on 1..3
    return tuple(p[q[x - 1] - 1] for x in range(1, 4))


S3_PERMS = {
    "e": (1, 2, 3),
    "(12)": (2, 1, 3),
    "(13)": (3, 2, 1),
    "(23)": (1, 3, 2),
    "(123)": (2, 3, 1),
    "(132)": (3, 1, 2),
}
S3_NAMES = list(S3_PERMS)


def s3_table():
    perms = [S3_PERMS[name] for name in S3_NAMES]
    index = {perm: i for i, perm in enumerate(perms)}
    table = [
        [index[_compose_perms(p, q)] for q in perms]
        for p in perms
    ]
    return TableBackend(table, identity=0, names=S3_NAMES)


def all_pairs_validate(backend, rep):
    """TableBackend.auto_validate as it was before its generator check: the
    homomorphism law on all pairs."""
    n, e, table = backend.size, backend.identity, backend.table
    if len(rep) != n or set(rep) != set(range(n)):
        return "automorphism map is not a permutation"
    if rep[e] != e:
        return "automorphism map moves the identity"
    for a in range(n):
        for b in range(n):
            if rep[table[a][b]] != table[rep[a]][rep[b]]:
                return "map violates the homomorphism law"
    return None


@pytest.fixture(scope="session")
def triple_z2():
    return FactorSystem([CyclicBackend(2), CyclicBackend(2), CyclicBackend(2)])


@pytest.fixture(scope="session")
def z342():
    return FactorSystem([CyclicBackend(3), CyclicBackend(4), CyclicBackend(2)])


@pytest.fixture(scope="session")
def z3422():
    return FactorSystem(
        [CyclicBackend(3), CyclicBackend(4), CyclicBackend(2), CyclicBackend(2)]
    )


@pytest.fixture(scope="session")
def s3_z2_z2():
    return FactorSystem([s3_table(), CyclicBackend(2), CyclicBackend(2)])


@pytest.fixture(scope="session")
def mixed_system():
    return FactorSystem([s3_table(), CyclicBackend(2), IntBackend()])


@pytest.fixture(scope="session")
def s3_z2_z_z5():
    return FactorSystem([s3_table(), CyclicBackend(2), IntBackend(), CyclicBackend(5)])
