//! Simulation result reporting.

use std::fmt;

use hypersio_cache::CacheStats;
use hypersio_mem::IommuStats;

use hypersio_obs::{ComponentSums, LatencyAttribution};

use crate::latency::LatencyStats;
use crate::per_tenant::PerTenantReport;
use hypersio_trace::{Interleaving, WorkloadKind};
use hypersio_types::json::escape;
use hypersio_types::{Bandwidth, Bytes, SimDuration};

/// The results of one simulation run.
///
/// The headline numbers are [`SimReport::achieved`] (total bytes over
/// elapsed time) and [`SimReport::utilization`] (fraction of the nominal
/// link bandwidth) — these are the y-axes of every bandwidth figure in the
/// paper. The per-structure statistics feed the sensitivity studies.
///
/// `PartialEq` compares every field (including exact `f64` equality) — the
/// parallel sweep executor's bit-identity guarantee is tested through it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Name of the simulated configuration ("Base", "HyperTRIO", …).
    pub config_name: String,
    /// Workload the trace modelled.
    pub workload: WorkloadKind,
    /// Inter-tenant interleaving of the trace.
    pub interleaving: Interleaving,
    /// Number of tenants in the trace.
    pub tenants: u32,
    /// Packets fully processed (all three translations completed).
    pub packets_processed: u64,
    /// Arrival slots lost to PTB-full drops (each dropped packet was
    /// retried at a later slot).
    pub packets_dropped: u64,
    /// Wire bytes moved for the processed packets.
    pub bytes: Bytes,
    /// Simulated time from first arrival to last completion.
    pub elapsed: SimDuration,
    /// Achieved bandwidth.
    pub achieved: Bandwidth,
    /// Achieved / nominal bandwidth, clamped at the source to `0.0 ..= 1.0`
    /// (the clamp absorbs f64 rounding in the bandwidth division).
    pub utilization: f64,
    /// DevTLB access statistics.
    pub devtlb: CacheStats,
    /// Prefetch Buffer statistics (zeroed when prefetching is disabled).
    pub prefetch_buffer: CacheStats,
    /// Fraction of translation requests served by the Prefetch Buffer.
    pub pb_served_fraction: f64,
    /// Translation prefetches issued to the IOMMU.
    pub prefetches_issued: u64,
    /// Prefetch fills discarded because the walk had not completed by the
    /// predicted delivery point (the prefetch was issued too late to help).
    ///
    /// Invariant: fills only exist for issued prefetches, so this is zero
    /// whenever [`SimReport::prefetches_issued`] is zero (in particular in
    /// every non-prefetch configuration).
    pub prefetch_fills_late: u64,
    /// Prefetch fills still queued when the trace ended — their predicted
    /// access never arrived, so they were never delivered to the PB.
    ///
    /// Invariant: zero whenever [`SimReport::prefetches_issued`] is zero,
    /// for the same reason as [`SimReport::prefetch_fills_late`].
    pub prefetch_fills_expired: u64,
    /// IO page faults raised (touches of a not-yet-resident page); zero
    /// without fault injection.
    pub page_faults: u64,
    /// PRI-style page requests sent to the host (one per distinct
    /// not-present page first touched); zero without fault injection.
    pub pri_requests: u64,
    /// Packets terminally dropped after exhausting their fault-retry
    /// budget; zero without fault injection.
    pub faulted_drops: u64,
    /// Invalidation storms applied (per-DID or global shootdowns); zero
    /// without fault injection.
    pub inv_storms: u64,
    /// Tenant migrations applied (host slab moved + shootdown); zero
    /// without fault injection.
    pub tenant_remaps: u64,
    /// IOMMU aggregate statistics (includes prefetch traffic).
    pub iommu: IommuStats,
    /// L2 page-walk-cache statistics.
    pub l2_cache: CacheStats,
    /// L3 page-walk-cache statistics.
    pub l3_cache: CacheStats,
    /// Total translation requests the device issued (3 per packet).
    pub translation_requests: u64,
    /// Per-packet service latency (arrival to last translation done).
    pub packet_latency: LatencyStats,
    /// Per-tenant breakdown; `Some` only when the run was configured with
    /// [`SimParams::with_per_tenant`](crate::SimParams::with_per_tenant).
    pub per_tenant: Option<PerTenantReport>,
    /// Additive latency decomposition over every completed packet; `Some`
    /// only when the run collected spans (a span observer was attached and
    /// the caller transferred its accumulator here). The simulation loop
    /// itself always leaves this `None` so span-on and span-off runs
    /// produce identical reports.
    pub latency_breakdown: Option<LatencyAttribution>,
}

impl SimReport {
    /// Achieved bandwidth in Gb/s (convenience for tables).
    pub fn gbps(&self) -> f64 {
        self.achieved.gbps()
    }

    /// Drop fraction: dropped slots over all arrival slots used.
    pub fn drop_fraction(&self) -> f64 {
        let total = self.packets_processed + self.packets_dropped;
        if total == 0 {
            0.0
        } else {
            self.packets_dropped as f64 / total as f64
        }
    }

    /// Serializes the report as a self-describing JSON document
    /// (schema `sim_report/v1`) for machine consumption (`--report-json`).
    ///
    /// The `per_tenant` key is `null` unless the run collected per-tenant
    /// statistics.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"sim_report/v1\",\n");
        let _ = writeln!(out, "  \"config\": \"{}\",", escape(&self.config_name));
        let _ = writeln!(
            out,
            "  \"workload\": \"{}\",",
            escape(&self.workload.to_string())
        );
        let _ = writeln!(
            out,
            "  \"interleaving\": \"{}\",",
            escape(&self.interleaving.to_string())
        );
        let _ = writeln!(out, "  \"tenants\": {},", self.tenants);
        let _ = writeln!(out, "  \"packets_processed\": {},", self.packets_processed);
        let _ = writeln!(out, "  \"packets_dropped\": {},", self.packets_dropped);
        let _ = writeln!(out, "  \"drop_fraction\": {},", self.drop_fraction());
        let _ = writeln!(out, "  \"bytes\": {},", self.bytes.raw());
        let _ = writeln!(out, "  \"elapsed_ps\": {},", self.elapsed.as_ps());
        let _ = writeln!(out, "  \"gbps\": {},", self.gbps());
        let _ = writeln!(out, "  \"utilization\": {},", self.utilization);
        let _ = writeln!(
            out,
            "  \"translation_requests\": {},",
            self.translation_requests
        );
        cache_json(&mut out, "devtlb", &self.devtlb);
        cache_json(&mut out, "prefetch_buffer", &self.prefetch_buffer);
        let _ = writeln!(
            out,
            "  \"pb_served_fraction\": {},",
            self.pb_served_fraction
        );
        let _ = writeln!(out, "  \"prefetches_issued\": {},", self.prefetches_issued);
        let _ = writeln!(
            out,
            "  \"prefetch_fills_late\": {},",
            self.prefetch_fills_late
        );
        let _ = writeln!(
            out,
            "  \"prefetch_fills_expired\": {},",
            self.prefetch_fills_expired
        );
        let _ = writeln!(
            out,
            "  \"iommu\": {{\"requests\": {}, \"dram_accesses\": {}, \"full_walks\": {}, \"faults\": {}}},",
            self.iommu.requests, self.iommu.dram_accesses, self.iommu.full_walks, self.iommu.faults
        );
        let _ = writeln!(
            out,
            "  \"fault_injection\": {{\"page_faults\": {}, \"pri_requests\": {}, \"faulted_drops\": {}, \"inv_storms\": {}, \"tenant_remaps\": {}}},",
            self.page_faults, self.pri_requests, self.faulted_drops, self.inv_storms, self.tenant_remaps
        );
        cache_json(&mut out, "l2_cache", &self.l2_cache);
        cache_json(&mut out, "l3_cache", &self.l3_cache);
        out.push_str("  \"latency_ps\": ");
        latency_json(&mut out, &self.packet_latency);
        match &self.per_tenant {
            None => out.push_str(",\n  \"per_tenant\": null"),
            Some(pt) => {
                let fair = pt.fairness();
                out.push_str(",\n  \"per_tenant\": {\n");
                let _ = writeln!(
                    out,
                    "    \"fairness\": {{\"min_packets\": {}, \"max_packets\": {}, \"jain\": {}}},",
                    fair.min_packets, fair.max_packets, fair.jain
                );
                out.push_str("    \"tenants\": [\n");
                for (i, t) in pt.tenants.iter().enumerate() {
                    let _ = write!(
                        out,
                        "      {{\"did\": {}, \"packets\": {}, \"bytes\": {}, \"drops\": {}, \
                         \"devtlb_hits\": {}, \"devtlb_misses\": {}, \"pb_hits\": {}, \
                         \"faulted_drops\": {}, \"latency_ps\": ",
                        t.did,
                        t.packets,
                        t.bytes,
                        t.drops,
                        t.devtlb_hits,
                        t.devtlb_misses,
                        t.pb_hits,
                        t.faulted_drops
                    );
                    latency_json(&mut out, &t.latency);
                    out.push('}');
                    out.push_str(if i + 1 < pt.tenants.len() {
                        ",\n"
                    } else {
                        "\n"
                    });
                }
                out.push_str("    ]\n  }");
            }
        }
        match &self.latency_breakdown {
            None => out.push_str(",\n  \"latency_breakdown\": null\n"),
            Some(lb) => {
                let t = lb.total();
                out.push_str(",\n  \"latency_breakdown\": {\n");
                let _ = writeln!(out, "    \"packets\": {},", t.packets);
                out.push_str("    \"components_ps\": ");
                components_json(&mut out, t);
                out.push_str(",\n");
                let _ = writeln!(out, "    \"service_ps\": {},", t.service_ps());
                let _ = writeln!(out, "    \"wait_ps\": {},", t.wait_ps());
                let _ = writeln!(out, "    \"total_ps\": {},", t.total_ps());
                match lb.per_tenant() {
                    None => out.push_str("    \"per_tenant\": null\n"),
                    Some(map) => {
                        out.push_str("    \"per_tenant\": [\n");
                        for (i, (did, s)) in map.iter().enumerate() {
                            let _ = write!(
                                out,
                                "      {{\"did\": {}, \"packets\": {}, \"components_ps\": ",
                                did, s.packets
                            );
                            components_json(&mut out, s);
                            let _ = write!(out, ", \"total_ps\": {}}}", s.total_ps());
                            out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                        }
                        out.push_str("    ]\n");
                    }
                }
                out.push_str("  }\n");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Appends one `"name": {...}` cache-statistics object plus trailing comma.
fn cache_json(out: &mut String, name: &str, stats: &hypersio_cache::CacheStats) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "  \"{}\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {}}},",
        name,
        stats.hits(),
        stats.misses(),
        stats.evictions(),
        stats.hit_rate()
    );
}

/// Appends one `{"lookup": Σps, ...}` component-sum object (no trailing
/// comma or newline), keys in the fixed display order of
/// [`ComponentSums::named`].
fn components_json(out: &mut String, sums: &ComponentSums) {
    use std::fmt::Write as _;
    out.push('{');
    for (i, (name, ps)) in sums.named().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {ps}");
    }
    out.push('}');
}

/// Appends one latency-summary object (no trailing comma or newline).
fn latency_json(out: &mut String, stats: &LatencyStats) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        stats.count(),
        stats.mean().as_ps(),
        stats.p50().as_ps(),
        stats.p95().as_ps(),
        stats.p99().as_ps(),
        stats.max().as_ps()
    );
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {} / {} / {} tenants: {:.2} Gb/s ({:.1}% of link)",
            self.config_name,
            self.workload,
            self.interleaving,
            self.tenants,
            self.gbps(),
            self.utilization * 100.0
        )?;
        writeln!(
            f,
            "  packets: {} processed, {} dropped ({:.2}% drop)",
            self.packets_processed,
            self.packets_dropped,
            self.drop_fraction() * 100.0
        )?;
        writeln!(f, "  devtlb:  {}", self.devtlb)?;
        writeln!(
            f,
            "  pb:      {} ({:.1}% of requests served), {} prefetches",
            self.prefetch_buffer,
            self.pb_served_fraction * 100.0,
            self.prefetches_issued
        )?;
        // Losses can only exist when prefetches were issued (see the field
        // invariants), but gate on the counters too so a nonzero loss can
        // never be silently hidden.
        if self.prefetches_issued > 0
            || self.prefetch_fills_late > 0
            || self.prefetch_fills_expired > 0
        {
            writeln!(
                f,
                "  pf-loss: {} fills late, {} fills expired undelivered",
                self.prefetch_fills_late, self.prefetch_fills_expired
            )?;
        }
        writeln!(
            f,
            "  iommu:   {} requests, {} dram reads, {} full walks",
            self.iommu.requests, self.iommu.dram_accesses, self.iommu.full_walks
        )?;
        // Only printed when fault injection actually did something, so
        // fault-free output stays byte-identical with older reports.
        if self.page_faults > 0
            || self.pri_requests > 0
            || self.faulted_drops > 0
            || self.inv_storms > 0
            || self.tenant_remaps > 0
        {
            writeln!(
                f,
                "  faults:  {} page faults, {} pri requests, {} faulted drops, {} storms, {} remaps",
                self.page_faults,
                self.pri_requests,
                self.faulted_drops,
                self.inv_storms,
                self.tenant_remaps
            )?;
        }
        write!(f, "  latency: {}", self.packet_latency)?;
        if let Some(per_tenant) = &self.per_tenant {
            write!(f, "\n{per_tenant}")?;
        }
        // Only printed when a span collector ran, so span-off output stays
        // byte-identical with older reports.
        if let Some(lb) = &self.latency_breakdown {
            let t = lb.total();
            write!(f, "\n  breakdown: {} packets attributed", t.packets)?;
            let total = t.total_ps();
            if total > 0 {
                for (name, ps) in t.named() {
                    let mean = ps / u128::from(t.packets.max(1));
                    let pct = 100.0 * ps as f64 / total as f64;
                    write!(f, "\n    {name:<10} {mean:>12} ps/pkt  {pct:5.1}%")?;
                }
            }
            if let Some(map) = lb.per_tenant() {
                write!(
                    f,
                    "\n    did      packets  lookup%  ptbw%  pcie%  walk%  retry%  pri%"
                )?;
                for (did, s) in map {
                    let tt = s.total_ps().max(1) as f64;
                    write!(f, "\n    {did:<8} {:>7}", s.packets)?;
                    for (_, ps) in s.named() {
                        write!(f, "  {:5.1}", 100.0 * ps as f64 / tt)?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> SimReport {
        SimReport {
            config_name: "Base".to_string(),
            workload: WorkloadKind::Iperf3,
            interleaving: Interleaving::round_robin(1),
            tenants: 4,
            packets_processed: 90,
            packets_dropped: 10,
            bytes: Bytes::new(90 * 1542),
            elapsed: SimDuration::from_us(10),
            achieved: Bandwidth::from_gbps(111),
            utilization: 0.555,
            devtlb: CacheStats::new(),
            prefetch_buffer: CacheStats::new(),
            pb_served_fraction: 0.0,
            prefetches_issued: 0,
            prefetch_fills_late: 0,
            prefetch_fills_expired: 0,
            page_faults: 0,
            pri_requests: 0,
            faulted_drops: 0,
            inv_storms: 0,
            tenant_remaps: 0,
            iommu: IommuStats::default(),
            l2_cache: CacheStats::new(),
            l3_cache: CacheStats::new(),
            translation_requests: 270,
            packet_latency: LatencyStats::new(),
            per_tenant: None,
            latency_breakdown: None,
        }
    }

    #[test]
    fn drop_fraction_math() {
        let r = dummy();
        assert!((r.drop_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(r.gbps(), 111.0);
    }

    #[test]
    fn drop_fraction_empty_run() {
        let mut r = dummy();
        r.packets_processed = 0;
        r.packets_dropped = 0;
        assert_eq!(r.drop_fraction(), 0.0);
    }

    #[test]
    fn display_includes_headline() {
        let s = dummy().to_string();
        assert!(s.contains("111.00 Gb/s"));
        assert!(s.contains("55.5% of link"));
        assert!(s.contains("90 processed"));
        assert!(s.contains("latency:"));
    }

    #[test]
    fn display_reports_prefetch_losses_only_when_prefetching() {
        // No prefetches issued: the pf-loss line is suppressed.
        assert!(!dummy().to_string().contains("pf-loss"));
        let mut r = dummy();
        r.prefetches_issued = 10;
        r.prefetch_fills_late = 3;
        r.prefetch_fills_expired = 2;
        let s = r.to_string();
        assert!(s.contains("pf-loss: 3 fills late, 2 fills expired undelivered"));
    }

    #[test]
    fn display_never_hides_nonzero_losses() {
        // The field invariant says this state is unreachable, but if it
        // ever regressed the loss must still be visible.
        let mut r = dummy();
        r.prefetch_fills_late = 1;
        assert!(r.to_string().contains("pf-loss: 1 fills late"));
    }

    #[test]
    fn display_shows_fault_line_only_when_faulting() {
        assert!(!dummy().to_string().contains("faults:"));
        let mut r = dummy();
        r.page_faults = 12;
        r.pri_requests = 4;
        r.faulted_drops = 1;
        r.inv_storms = 2;
        r.tenant_remaps = 1;
        let s = r.to_string();
        assert!(s.contains(
            "faults:  12 page faults, 4 pri requests, 1 faulted drops, 2 storms, 1 remaps"
        ));
    }

    #[test]
    fn json_always_carries_fault_injection_object() {
        let j = dummy().to_json();
        assert!(j.contains(
            "\"fault_injection\": {\"page_faults\": 0, \"pri_requests\": 0, \"faulted_drops\": 0, \"inv_storms\": 0, \"tenant_remaps\": 0}"
        ));
    }

    #[test]
    fn display_appends_per_tenant_section_when_present() {
        assert!(!dummy().to_string().contains("jain="));
        let mut r = dummy();
        r.per_tenant = Some(PerTenantReport {
            tenants: vec![crate::per_tenant::TenantStat {
                did: 0,
                packets: 90,
                ..Default::default()
            }],
        });
        let s = r.to_string();
        assert!(s.contains("jain="));
        assert!(s.contains("tlb-hit%"));
    }

    #[test]
    fn json_has_schema_and_headline_fields() {
        let j = dummy().to_json();
        assert!(j.contains("\"schema\": \"sim_report/v1\""));
        assert!(j.contains("\"config\": \"Base\""));
        assert!(j.contains("\"packets_processed\": 90"));
        assert!(j.contains("\"per_tenant\": null"));
        assert!(j.contains("\"latency_ps\": {\"count\": 0"));
    }

    #[test]
    fn json_serializes_per_tenant_section() {
        let mut r = dummy();
        r.per_tenant = Some(PerTenantReport {
            tenants: vec![
                crate::per_tenant::TenantStat {
                    did: 0,
                    packets: 45,
                    ..Default::default()
                },
                crate::per_tenant::TenantStat {
                    did: 1,
                    packets: 45,
                    ..Default::default()
                },
            ],
        });
        let j = r.to_json();
        assert!(j.contains("\"jain\": 1"));
        assert!(j.contains("\"did\": 1"));
        assert_eq!(j.matches("\"packets\": 45").count(), 2);
    }

    #[test]
    fn breakdown_hidden_when_absent() {
        assert!(!dummy().to_string().contains("breakdown"));
        assert!(dummy().to_json().contains("\"latency_breakdown\": null"));
    }

    #[test]
    fn breakdown_rendered_when_present() {
        use hypersio_obs::{PacketSpan, SpanComponents};
        let mut lb = LatencyAttribution::with_per_tenant();
        lb.observe(&PacketSpan {
            seq: 0,
            did: 3,
            sid: 3,
            arrival_ps: 0,
            service_ps: 400,
            complete_ps: 1_400,
            ptb_retries: 1,
            fault_retries: 0,
            components: SpanComponents {
                lookup_ps: 200,
                ptb_wait_ps: 100,
                pcie_ps: 300,
                walk_ps: 400,
                retry_wait_ps: 400,
                pri_wait_ps: 0,
            },
        });
        let mut r = dummy();
        r.latency_breakdown = Some(lb);
        let s = r.to_string();
        assert!(s.contains("breakdown: 1 packets attributed"));
        assert!(s.contains("lookup"));
        assert!(s.contains("did      packets"));
        let j = r.to_json();
        assert!(j.contains("\"latency_breakdown\": {"));
        assert!(j.contains(
            "\"components_ps\": {\"lookup\": 200, \"ptb_wait\": 100, \"pcie\": 300, \
             \"walk\": 400, \"retry_wait\": 400, \"pri_wait\": 0}"
        ));
        assert!(j.contains("\"total_ps\": 1400"));
        assert!(j.contains("\"did\": 3"));
    }

    #[test]
    fn breakdown_json_aggregate_only() {
        use hypersio_obs::{PacketSpan, SpanComponents};
        let mut lb = LatencyAttribution::new();
        lb.observe(&PacketSpan {
            seq: 0,
            did: 0,
            sid: 0,
            arrival_ps: 0,
            service_ps: 0,
            complete_ps: 100,
            ptb_retries: 0,
            fault_retries: 0,
            components: SpanComponents {
                lookup_ps: 100,
                ..SpanComponents::default()
            },
        });
        let mut r = dummy();
        r.latency_breakdown = Some(lb);
        let j = r.to_json();
        assert!(j.contains("\"latency_breakdown\": {"));
        assert!(j.contains("    \"per_tenant\": null"));
        assert!(!r.to_string().contains("did      packets"));
    }

    #[test]
    fn json_escapes_config_name() {
        let mut r = dummy();
        r.config_name = "Base \"quoted\"\n".to_string();
        let j = r.to_json();
        assert!(j.contains(r#""config": "Base \"quoted\"\n""#));
    }
}
