"""Tenant and policy verbs end to end: TENANT lifecycle, tenant-scoped
SCAN/FLOW/CLOSE_FLOW/RELOAD, POLICY hot-swap, and per-tenant STATS
isolation through the daemon."""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.service import (ScanService, ServiceClient, ServiceConfig,
                           ServiceError, ServiceThread)
from repro.service.registry import DictionaryRegistry

DROP_VIRUS = [{"name": "viral", "action": "drop",
               "patterns": ["virus"]}]


@contextmanager
def running_service(patterns=("base",), tenants=None, **config_kwargs):
    config = ServiceConfig(port=0, **config_kwargs)
    service = ScanService(list(patterns), config=config,
                          tenants=tenants)
    with ServiceThread(service) as handle:
        yield handle


@contextmanager
def client_for(handle):
    with ServiceClient(handle.host, handle.port) as client:
        yield client


class TestTenantVerb:
    def test_create_list_info_delete(self):
        with running_service() as handle, client_for(handle) as client:
            info = client.tenant_create("acme", ["virus", "worm"],
                                        rules=DROP_VIRUS)
            assert info["tenant"] == "acme"
            assert info["patterns"] == 2
            assert info["rules"] == 1
            assert client.tenants() == ["acme"]

            detail = client.tenant_info("acme")
            assert detail["policy"]["rules"] == 1
            assert detail["registry"]["patterns"] == 2

            client.tenant_delete("acme")
            assert client.tenants() == []

    def test_startup_tenants_from_config(self):
        tenants = {"acme": {"patterns": ["virus"],
                            "rules": DROP_VIRUS},
                   "beta": {"patterns": ["beta-sig"]}}
        with running_service(tenants=tenants) as handle, \
                client_for(handle) as client:
            assert client.tenants() == ["acme", "beta"]
            assert client.scan_packet("f", "a virus",
                                      tenant="acme").action == "drop"

    def test_duplicate_and_unknown_tenants_error(self):
        with running_service() as handle, client_for(handle) as client:
            client.tenant_create("acme", ["virus"])
            with pytest.raises(ServiceError, match="already exists"):
                client.tenant_create("acme", ["virus"])
            with pytest.raises(ServiceError, match="unknown tenant"):
                client.tenant_delete("ghost")
            with pytest.raises(ServiceError, match="unknown tenant"):
                client.scan(b"data", tenant="ghost")

    def test_bad_rules_rejected_at_create(self):
        with running_service() as handle, client_for(handle) as client:
            with pytest.raises(ServiceError, match="not in the dict"):
                client.tenant_create("acme", ["virus"], rules=[
                    {"name": "r", "action": "drop",
                     "patterns": ["missing-sig"]}])
            assert client.tenants() == []


class TestTenantScoping:
    def test_scan_routes_through_tenant_dictionary(self):
        with running_service(["base"]) as handle, \
                client_for(handle) as client:
            client.tenant_create("acme", ["tenant-sig"])
            assert client.scan(b"tenant-sig here").matches == 0
            r = client.scan(b"tenant-sig here", tenant="acme")
            assert r.matches == 1
            assert client.scan(b"a base hit").matches == 1

    def test_flow_verdicts_and_close(self):
        with running_service() as handle, client_for(handle) as client:
            client.tenant_create("acme", ["virus", "worm"],
                                 rules=DROP_VIRUS)
            f = client.scan_packet("f1", "clean", tenant="acme")
            assert (f.action, f.rule) == ("forward", None)
            f = client.scan_packet("f1", "a virus", tenant="acme")
            assert (f.action, f.rule) == ("drop", "viral")
            assert f.triggered == ["viral"]
            # Latched across subsequent clean packets.
            f = client.scan_packet("f1", "clean", tenant="acme")
            assert f.action == "drop"

            h = client.request({"verb": "CLOSE_FLOW", "flow": "f1",
                                "tenant": "acme"}).header
            assert h["action"] == "drop"
            assert h["matches"] == 1

    def test_same_flow_id_isolated_between_tenants(self):
        with running_service() as handle, client_for(handle) as client:
            client.tenant_create("acme", ["virus"], rules=DROP_VIRUS)
            client.tenant_create("beta", ["virus"])
            assert client.scan_packet("f", "virus",
                                      tenant="acme").action == "drop"
            assert client.scan_packet("f", "virus",
                                      tenant="beta").action == "forward"

    def test_tenant_reload_is_scoped(self):
        with running_service(["base"]) as handle, \
                client_for(handle) as client:
            client.tenant_create("acme", ["old-sig"])
            swap = client.reload(["new-sig"], tenant="acme")
            assert swap.generation == 2
            assert client.scan(b"new-sig", tenant="acme").matches == 1
            # The default dictionary never moved.
            assert client.ping() == 1
            assert client.scan(b"a base hit").matches == 1


class TestPolicyVerb:
    def test_set_and_get_round_trip(self):
        with running_service() as handle, client_for(handle) as client:
            client.tenant_create("acme", ["virus", "worm"])
            gen = client.set_policy("acme", DROP_VIRUS)
            assert gen == 2
            pol = client.policy("acme")
            assert pol["policy_generation"] == 2
            assert pol["mode"] == "first-match"
            assert [r["name"] for r in pol["rules"]] == ["viral"]
            assert client.scan_packet("f", "virus",
                                      tenant="acme").action == "drop"

    def test_set_policy_validates_patterns(self):
        with running_service() as handle, client_for(handle) as client:
            client.tenant_create("acme", ["virus"])
            with pytest.raises(ServiceError, match="not in the dict"):
                client.set_policy("acme", [
                    {"name": "r", "action": "drop",
                     "patterns": ["ghost-sig"]}])

    def test_policy_requires_a_tenant(self):
        with running_service() as handle, client_for(handle) as client:
            with pytest.raises(ServiceError):
                client.request({"verb": "POLICY", "op": "get"})


class TestSwapsOffTheEventLoop:
    """POLICY set and TENANT delete wait on locks a tenant compile holds
    for its whole duration; they must queue on the reload thread, never
    stall the event loop that answers everyone else."""

    @pytest.mark.parametrize("verb", ["POLICY", "TENANT"])
    def test_ping_answers_while_a_swap_waits_on_a_compile(
            self, verb, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        compile_generation = DictionaryRegistry._compile_generation

        def held_compile(registry, *args, **kwargs):
            entered.set()
            release.wait(30)
            return compile_generation(registry, *args, **kwargs)

        with running_service() as handle:
            with client_for(handle) as admin:
                admin.tenant_create("acme", ["virus"])
            monkeypatch.setattr(DictionaryRegistry, "_compile_generation",
                                held_compile)
            replies = {}

            def send(name, call):
                with client_for(handle) as client:
                    replies[name] = call(client)

            swap = (lambda c: c.set_policy("acme", DROP_VIRUS)) \
                if verb == "POLICY" else \
                (lambda c: c.tenant_delete("acme"))
            threads = [threading.Thread(target=send, args=(
                "reload", lambda c: c.reload(["virus", "worm"],
                                             tenant="acme")))]
            threads[0].start()
            try:
                assert entered.wait(10), "the tenant compile never began"
                def seen():
                    return handle.service.metrics.snapshot()[
                        "requests"].get(verb, 0)

                before = seen()
                threads.append(threading.Thread(target=send,
                                                args=("swap", swap)))
                threads[1].start()
                deadline = time.monotonic() + 10
                while seen() == before:    # the swap reached the daemon
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with ServiceClient(handle.host, handle.port,
                                   timeout=1.0) as probe:
                    assert probe.ping() == 1
            finally:
                release.set()
                for t in threads:
                    t.join(30)
        assert replies["reload"].generation == 2
        assert "swap" in replies


class TestStatsIsolation:
    def test_per_tenant_metrics_never_cross(self):
        with running_service() as handle, client_for(handle) as client:
            client.tenant_create("acme", ["virus"], rules=DROP_VIRUS)
            client.tenant_create("beta", ["virus"])
            client.scan_packet("f", "virus", tenant="acme")
            client.scan_packet("f", "virus", tenant="beta")
            client.scan(b"a virus", tenant="acme")

            stats = client.stats()
            tm = stats["metrics"]["tenants"]
            assert tm["acme"]["requests"] == 2
            assert tm["beta"]["requests"] == 1
            assert tm["acme"]["actions"] == {"drop": 1}
            assert tm["beta"]["actions"] == {"forward": 1}
            assert tm["acme"]["verdict_latency"]["count"] == 1
            # Tenant-scoped traffic never pollutes the default
            # dictionary's flow table.
            assert stats["registry"]["sessions"]["flows"] == 0
            assert stats["tenants"]["acme"]["verdicts"]["flows"] == 1

    def test_deleted_tenant_metrics_forgotten(self):
        with running_service() as handle, client_for(handle) as client:
            client.tenant_create("acme", ["virus"])
            client.scan(b"x", tenant="acme")
            client.tenant_delete("acme")
            assert "acme" not in client.stats()["metrics"]["tenants"]

    def test_session_stats_surface_through_stats(self):
        with running_service(["base"]) as handle, \
                client_for(handle) as client:
            client.scan_packet("f1", "data")
            sessions = client.stats()["registry"]["sessions"]
            assert sessions["flows"] == 1
            assert sessions["evictions"] == 0
            assert sessions["max_flows"] > 0
