import pytest

from eulerchar.cyclotomic_fields import (ExtensionSpec, _is_perfect_power, infinite_inertia_places,
                                         infinite_inertia_set, multiplicative_order, split)
from eulerchar.errors import InputError
from eulerchar.padics import MAX_VALUE, is_prime


def test_split_rejects_composites():
    with pytest.raises(InputError, match="not prime"):
        split(15, 7)
    with pytest.raises(InputError, match="not prime"):
        split(11, 9)


def test_f_times_g_and_split_completely_iff_1_mod_p():
    for p in (5, 7, 11, 13):
        for l in range(2, 500):
            if not is_prime(l) or l == p:
                continue
            data = split(l, p)
            assert data.f * data.g == p - 1
            assert data.q_v == l ** data.f
            assert (data.f == 1) == (l % p == 1)


def test_multiplicative_order_errors():
    with pytest.raises(InputError):
        multiplicative_order(7, 7)


def _order_by_powers(a, p):
    """The slow route: multiply by a until the power returns to 1."""
    order, x = 1, a % p
    while x != 1:
        x = x * a % p
        order += 1
    return order


def test_multiplicative_order_matches_repeated_multiplication():
    for p in range(2, 200):
        if is_prime(p):
            assert [multiplicative_order(a, p) for a in range(1, p)] == \
                [_order_by_powers(a, p) for a in range(1, p)]
    for a in (2, 3, 10, 7918):
        assert multiplicative_order(a, 7919) == _order_by_powers(a, 7919)


def test_split_refuses_residue_fields_past_the_bound():
    assert split(2, 6637).q_v == 2 ** 6636 < MAX_VALUE  # the largest f for l = 2 below the bound
    with pytest.raises(InputError, match=r"l = 2 has residue degree f = 6652 in Q\(mu_6653\)"):
        split(2, 6653)
    # f = (p - 1)/2: refused before 2^f is formed
    with pytest.raises(InputError, match="f = 500000003 in Q"):
        split(2, 1000000007)


def test_inertia_set_m_10_p_5():
    ext = ExtensionSpec(5, 10)
    assert [d.l for d in infinite_inertia_set(ext)] == [2, 5]
    places = infinite_inertia_places(infinite_inertia_set(ext))
    assert len(places) == 1  # order of 2 mod 5 is 4, so g = 1
    assert places[0].q_v == 16


def test_extension_validation():
    with pytest.raises(InputError, match="invalid extension parameter"):
        ExtensionSpec(7, 1)
    with pytest.raises(InputError, match="perfect p-th power"):
        ExtensionSpec(5, 32)  # 2^5
    with pytest.raises(InputError, match=">= 5"):
        ExtensionSpec(3, 10)
    with pytest.raises(InputError, match="not prime"):
        ExtensionSpec(9, 10)
    # m sharing factors with p is fine as long as it is not a p-th power
    assert [d.l for d in infinite_inertia_set(ExtensionSpec(5, 50))] == [2, 5]
    with pytest.raises(InputError, match="m passes the bound 10"):
        ExtensionSpec(7, MAX_VALUE)
    assert ExtensionSpec(7, MAX_VALUE - 1).m == MAX_VALUE - 1
    root = 4 * 10 ** 285  # root^7 = 16384 * 10^1995 has 2000 digits
    with pytest.raises(InputError, match="perfect p-th power"):
        ExtensionSpec(7, root ** 7)
    # m is an int: a float or a bool is refused by name, not read
    for m, kind in ((113.0, "float"), (True, "bool"), ("113", "str")):
        with pytest.raises(InputError, match=f"m must be an int, got {kind}"):
            ExtensionSpec(7, m)


def test_perfect_power_against_brute_force():
    for k in (5, 7, 11, 13):
        powers = {r ** k for r in range(2, 6)}
        assert [m for m in range(2, 5000) if _is_perfect_power(m, k)] == \
            sorted(x for x in powers if x < 5000)
        assert _is_perfect_power(3 ** (k * 40), k) and not _is_perfect_power(3 ** (k * 40) + 1, k)
