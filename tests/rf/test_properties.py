"""Property-based tests on register file design invariants."""

from hypothesis import given, settings, strategies as st

from repro.rf import DualBankHiPerRF, HiPerRF, NdroRegisterFile, RFGeometry, \
    design_for
from repro.rf.census import demux_census, fanout_splitters, \
    merger_tree_mergers
from repro.rf.timing import Instr, Signal, dedup_sources, \
    schedule_dual_bank, schedule_hiperrf, schedule_ndro

geometries = st.builds(
    RFGeometry,
    num_registers=st.sampled_from([2, 4, 8, 16, 32, 64]),
    width_bits=st.sampled_from([2, 4, 8, 16, 32, 64]),
)

bankable_geometries = st.builds(
    RFGeometry,
    num_registers=st.sampled_from([4, 8, 16, 32, 64]),
    width_bits=st.sampled_from([2, 4, 8, 16, 32, 64]),
)


class TestDesignInvariants:
    @settings(max_examples=30, deadline=None)
    @given(geometry=geometries)
    def test_costs_positive_and_consistent(self, geometry):
        for cls in (NdroRegisterFile, HiPerRF):
            design = cls(geometry)
            assert design.jj_count() > 0
            assert design.static_power_uw() > 0
            assert design.readout_delay_ps() > 0
            # Census roll-up must equal the design-level accessors.
            assert design.census().jj_count() == design.jj_count()

    @settings(max_examples=30, deadline=None)
    @given(geometry=geometries)
    def test_storage_jj_counts(self, geometry):
        # The baseline holds exactly n*w NDRO cells; HiPerRF n*w/2 HC-DRO.
        baseline = NdroRegisterFile(geometry).census()
        hiperrf = HiPerRF(geometry).census()
        assert baseline.count("ndro") == geometry.total_bits
        assert hiperrf.count("hcdro") == geometry.total_bits // 2

    @settings(max_examples=30, deadline=None)
    @given(geometry=geometries)
    def test_jj_monotone_in_width(self, geometry):
        if geometry.width_bits >= 64:
            return
        wider = RFGeometry(geometry.num_registers, geometry.width_bits * 2)
        for cls in (NdroRegisterFile, HiPerRF):
            assert cls(wider).jj_count() > cls(geometry).jj_count()

    @settings(max_examples=30, deadline=None)
    @given(geometry=bankable_geometries)
    def test_dual_bank_between_1x_and_2x(self, geometry):
        single = HiPerRF(geometry).jj_count()
        dual = DualBankHiPerRF(geometry).jj_count()
        assert single < dual < 2.2 * single

    @settings(max_examples=30, deadline=None)
    @given(geometry=bankable_geometries)
    def test_hiperrf_always_slower_readout(self, geometry):
        assert HiPerRF(geometry).readout_delay_ps() > \
            NdroRegisterFile(geometry).readout_delay_ps()
        assert DualBankHiPerRF(geometry).readout_delay_ps() < \
            HiPerRF(geometry).readout_delay_ps()


class TestStructuralFormulas:
    @given(n=st.integers(min_value=1, max_value=4096))
    def test_fanout_splitters_formula(self, n):
        assert fanout_splitters(n) == n - 1

    @given(n=st.integers(min_value=1, max_value=4096))
    def test_merger_tree_formula(self, n):
        assert merger_tree_mergers(n) == n - 1

    @given(k=st.integers(min_value=1, max_value=10))
    def test_demux_census_counts(self, k):
        n = 2 ** k
        census = demux_census(n)
        assert census.count("ndroc") == n - 1
        assert census.count("splitter") == (n - 1) - k


instr_streams = st.lists(
    st.builds(
        Instr,
        dest=st.one_of(st.none(), st.integers(1, 31)),
        srcs=st.tuples(st.integers(1, 31), st.integers(1, 31)),
    ),
    min_size=1, max_size=40,
)


class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(stream=instr_streams)
    def test_all_schedules_respect_device_constraints(self, stream):
        """No generated schedule may violate 53 ps / 10 ps constraints."""
        for builder in (schedule_ndro, schedule_hiperrf, schedule_dual_bank):
            builder(stream).validate()

    @settings(max_examples=40, deadline=None)
    @given(stream=instr_streams)
    def test_issue_cycles_match_schedule(self, stream):
        """Each design's closed-form schedule must match the generated
        one: the issue intervals, and the cycle after issue at which each
        distinct source is read (the destination's reset-read excluded)."""
        for builder, name in ((schedule_ndro, "ndro_rf"),
                              (schedule_hiperrf, "hiperrf"),
                              (schedule_dual_bank, "dual_bank_hiperrf")):
            design = design_for(name, RFGeometry(32, 32))
            schedule = builder(stream)
            intervals = schedule.issue_intervals()
            expected = [design.issue_cycles(instr.srcs)
                        for instr in stream[:-1]]
            assert intervals == expected
            reads = [(e.register, e.cycle) for e in schedule.events
                     if e.signal is Signal.REN and "reset" not in e.note]
            expected_reads = []
            for instr, issue in zip(stream, schedule.issue_cycles):
                srcs = dedup_sources(instr.srcs)
                slots = design.read_slots(instr.srcs)
                assert len(slots) == len(srcs)
                expected_reads += [(src, issue + slot)
                                   for src, slot in zip(srcs, slots)]
            assert reads == expected_reads

    @settings(max_examples=40, deadline=None)
    @given(stream=instr_streams)
    def test_hiperrf_every_read_has_loopback(self, stream):
        from repro.rf.timing import Signal

        schedule = schedule_hiperrf(stream)
        reads = [e for e in schedule.events
                 if e.signal is Signal.REN and "reset" not in e.note]
        loopbacks = [e for e in schedule.events
                     if e.signal is Signal.LOOPBACK]
        assert len(reads) == len(loopbacks)
