import pytest

from metadr.discovery import (
    ChainTooDeep,
    CnameLoop,
    DnsRecordSet,
    NameNotFound,
    rebind_cname,
    resolve,
)


def zone():
    records = DnsRecordSet()
    records.add_endpoint("host-a", "10.0.0.1:7000")
    records.add_endpoint("host-b", "10.0.0.2:7000")
    records.add_cname("service-x", "host-a")
    return records


# -- resolution ----------------------------------------------------------------


def test_direct_endpoint_has_chain_length_zero():
    result = resolve(zone(), "host-a")
    assert result.endpoint == "10.0.0.1:7000"
    assert result.chain_length == 0


def test_two_hop_chain():
    records = zone()
    records.add_cname("alias", "service-x")
    result = resolve(records, "alias")
    assert result.endpoint == "10.0.0.1:7000"
    assert result.chain_length == 2


def test_unknown_name():
    with pytest.raises(NameNotFound):
        resolve(zone(), "ghost")


def test_cname_loop_detected_exactly():
    records = DnsRecordSet()
    records.add_cname("a", "b")
    records.add_cname("b", "a")
    with pytest.raises(CnameLoop):
        resolve(records, "a")


def test_chain_too_deep():
    records = DnsRecordSet()
    for i in range(12):
        records.add_cname(f"n{i}", f"n{i + 1}")
    records.add_endpoint("n12", "10.0.0.9:1")
    with pytest.raises(ChainTooDeep):
        resolve(records, "n0", max_depth=10)
    assert resolve(records, "n0", max_depth=12).chain_length == 12


def test_resolution_is_pure():
    records = zone()
    assert resolve(records, "service-x") == resolve(records, "service-x")


def test_name_cannot_have_both_record_kinds():
    records = zone()
    with pytest.raises(ValueError):
        records.add_cname("host-a", "elsewhere")
    with pytest.raises(ValueError):
        records.add_endpoint("service-x", "1.2.3.4:1")


def test_zone_line_parsing():
    records = DnsRecordSet.from_zone_lines(
        ["# comment", "ENDPT h 1.1.1.1:9", "CNAME s h", ""]
    )
    assert resolve(records, "s").endpoint == "1.1.1.1:9"
    with pytest.raises(ValueError):
        DnsRecordSet.from_zone_lines(["BOGUS x y"])


# -- rebinding -----------------------------------------------------------------


def test_rebind_repoints_resolution():
    records = zone()
    rebind_cname(records, "service-x", "host-b")
    assert resolve(records, "service-x").endpoint == "10.0.0.2:7000"


def test_rebind_unknown_name():
    with pytest.raises(NameNotFound):
        rebind_cname(zone(), "ghost", "host-a")


def test_rebind_into_loop_is_lazy():
    records = zone()
    records.add_cname("alias", "service-x")
    rebind_cname(records, "service-x", "alias")  # rebind itself succeeds
    with pytest.raises(CnameLoop):
        resolve(records, "alias")
