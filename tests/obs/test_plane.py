"""ObservabilityPlane: install, span/instant/metric delegation."""

from repro.obs import ObservabilityPlane
from repro.obs.plane import EVENT_CATEGORY, SPAN_CATEGORY
from repro.sim import Environment


class TestInstall:
    def test_env_has_no_plane_by_default(self):
        env = Environment()
        assert getattr(env, "obs", None) is None

    def test_install_binds_env_obs(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        assert env.obs is plane


class TestSpans:
    def test_begin_end_carries_track(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        sp = plane.begin("read", track="disk:sd0", stream="s1", seq=3)
        plane.end(sp, bytes=100)
        begin, end = plane.span_events()
        assert begin.category == SPAN_CATEGORY
        assert begin.name == "read"
        assert begin.fields["track"] == "disk:sd0"
        assert begin.fields["stream"] == "s1"
        assert end.fields["bytes"] == 100

    def test_filtered_category_costs_one_none(self):
        env = Environment()
        plane = ObservabilityPlane(env, categories=["event"]).install()
        sp = plane.begin("read", track="disk:sd0")
        assert sp is None
        plane.end(sp)  # no-op, no unbalanced count
        assert plane.tracer.unbalanced_ends == 0
        assert len(plane.tracer) == 0

    def test_instant_marker(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        plane.instant("card_crash", track="card:rd0", card="rd0")
        [e] = plane.tracer.events(category=EVENT_CATEGORY)
        assert e.name == "card_crash"
        assert e.fields["track"] == "card:rd0"


class TestMetricsDelegation:
    def test_count_gauge_observe(self):
        env = Environment()
        plane = ObservabilityPlane(env).install()
        plane.count("frames", stream="s1")
        plane.gauge("depth", 4.0)
        plane.observe("lat_us", 12.5)
        assert plane.registry.value("frames", stream="s1") == 1.0
        assert plane.registry.value("depth") == 4.0
        assert plane.registry.get("lat_us").observations == 1
