"""Tests for MAC/IPv4 addressing and CIDR networks."""

import pytest

from repro.net.addresses import BROADCAST_MAC, IPv4Address, IPv4Network, MacAddress, mac_factory


class TestMacAddress:
    def test_parse_and_format_roundtrip(self):
        mac = MacAddress("02:00:00:00:00:2a")
        assert mac.value == 0x02_00_00_00_00_2A
        assert str(mac) == "02:00:00:00:00:2a"

    def test_equality_and_hash(self):
        assert MacAddress(5) == MacAddress(5)
        assert MacAddress(5) != MacAddress(6)
        assert len({MacAddress(5), MacAddress(5)}) == 1

    def test_broadcast(self):
        assert BROADCAST_MAC.is_broadcast
        assert not MacAddress(1).is_broadcast

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            MacAddress("1:2:3")
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    def test_copy_constructor(self):
        a = MacAddress(7)
        assert MacAddress(a) == a

    def test_factory_sequential_and_stable(self):
        mint = mac_factory()
        m1, m2 = mint(), mint()
        assert m1 != m2
        mint2 = mac_factory()
        assert mint2() == m1


class TestIPv4Address:
    def test_parse_and_format(self):
        ip = IPv4Address("10.1.2.3")
        assert ip.value == (10 << 24) | (1 << 16) | (2 << 8) | 3
        assert str(ip) == "10.1.2.3"

    def test_ordering_and_add(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert IPv4Address("10.0.0.1") + 4 == IPv4Address("10.0.0.5")

    def test_broadcast_flag(self):
        assert IPv4Address("255.255.255.255").is_broadcast

    def test_bad_inputs(self):
        for bad in ("10.0.0", "10.0.0.256", "a.b.c.d"):
            with pytest.raises(ValueError):
                IPv4Address(bad)

    @pytest.mark.parametrize("bad", ["10.0.300.1", "10.0.0.-1"])
    def test_bad_octet_error_quotes_the_input(self, bad):
        with pytest.raises(ValueError, match=f"bad IPv4 '{bad}'"):
            IPv4Address(bad)


class TestIPv4Network:
    def test_contains(self):
        net = IPv4Network("192.168.1.0/24")
        assert IPv4Address("192.168.1.55") in net
        assert IPv4Address("192.168.2.1") not in net

    def test_normalizes_host_bits(self):
        net = IPv4Network("192.168.1.77/24")
        assert str(net.network) == "192.168.1.0"

    def test_broadcast_and_host(self):
        net = IPv4Network("10.0.0.0/30")
        assert str(net.broadcast) == "10.0.0.3"
        assert str(net.host(1)) == "10.0.0.1"
        with pytest.raises(ValueError):
            net.host(9)

    def test_hosts_enumeration(self):
        net = IPv4Network("10.0.0.0/30")
        assert [str(h) for h in net.hosts()] == ["10.0.0.1", "10.0.0.2"]

    def test_default_route_contains_everything(self):
        assert IPv4Address("8.8.8.8") in IPv4Network("0.0.0.0/0")

    def test_bad_cidr(self):
        with pytest.raises(ValueError):
            IPv4Network("10.0.0.0")
        with pytest.raises(ValueError):
            IPv4Network("10.0.0.0/33")

    def test_equality(self):
        assert IPv4Network("10.0.0.0/8") == IPv4Network("10.1.0.0/8")
        assert IPv4Network("10.0.0.0/8") != IPv4Network("10.0.0.0/9")
        # Equal networks hash alike: value semantics, as for addresses.
        assert hash(IPv4Network("10.0.0.0/8")) == hash(IPv4Network("10.1.0.0/8"))
        assert len({IPv4Network("10.0.0.0/8"), IPv4Network("10.1.0.0/8"),
                    IPv4Network("10.0.0.0/9")}) == 2


class TestInterning:
    """One object per address value, whatever it was built from."""

    @pytest.mark.parametrize("cls, text, value", [
        (IPv4Address, "10.1.2.3", (10 << 24) | (1 << 16) | (2 << 8) | 3),
        (MacAddress, "02:00:00:00:00:2a", 0x02_00_00_00_00_2A),
    ])
    def test_every_route_gives_the_interned_object(self, cls, text, value):
        import copy
        import pickle

        import numpy as np

        one = cls(text)
        assert cls(value) is one
        assert cls(np.int64(value)) is one and cls(np.uint64(value)) is one
        assert cls(one) is one
        assert pickle.loads(pickle.dumps(one)) is one
        assert copy.copy(one) is one and copy.deepcopy(one) is one
        assert copy.deepcopy({"k": [one]})["k"][0] is one

    def test_value_is_a_python_int(self):
        import numpy as np

        for addr in (IPv4Address(np.int64(7)), MacAddress(np.uint32(7)),
                     IPv4Address("0.0.0.7"), MacAddress("00:00:00:00:00:07")):
            assert type(addr.value) is int and addr.value == 7

    def test_mac_and_ip_of_one_value_differ(self):
        assert MacAddress(5) != IPv4Address(5)
        assert MacAddress(5) is not IPv4Address(5)
        assert len({MacAddress(5), IPv4Address(5)}) == 2

    def test_range_and_parse_errors_are_unchanged(self):
        with pytest.raises(ValueError, match=r"^MAC out of range: 0x1000000000000$"):
            MacAddress(1 << 48)
        with pytest.raises(ValueError, match=r"^MAC out of range: -0x1$"):
            MacAddress(-1)
        with pytest.raises(ValueError, match=r"^bad MAC '1:2:3'$"):
            MacAddress("1:2:3")
        with pytest.raises(ValueError, match="invalid literal"):
            MacAddress("zz:00:00:00:00:00")
        with pytest.raises(ValueError, match=r"^IPv4 out of range: 0x100000000$"):
            IPv4Address(1 << 32)
        with pytest.raises(ValueError, match=r"^bad IPv4 '10.0.0'$"):
            IPv4Address("10.0.0")
        with pytest.raises(ValueError, match="invalid literal"):
            IPv4Address("a.b.c.d")
        # A failed parse interns nothing: the next good one still works.
        assert IPv4Address("10.0.0.9").value == (10 << 24) | 9
