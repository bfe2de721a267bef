//! Trace containers and archive metadata.
//!
//! A [`Trace`] is one MAWI-style capture: 15 minutes of time-sorted
//! packets plus metadata identifying the archive day and the link era
//! it was captured under (the MAWI link was upgraded twice over the
//! paper's 2001–2009 study window).

use crate::packet::Packet;
use std::fmt;

/// Half-open time interval `[start_us, end_us)` in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeWindow {
    /// Inclusive start, µs.
    pub start_us: u64,
    /// Exclusive end, µs.
    pub end_us: u64,
}

impl TimeWindow {
    /// Creates a window; `start_us` must not exceed `end_us`.
    pub fn new(start_us: u64, end_us: u64) -> Self {
        assert!(start_us <= end_us, "window start after end");
        TimeWindow { start_us, end_us }
    }

    /// Window covering everything.
    pub fn all() -> Self {
        TimeWindow {
            start_us: 0,
            end_us: u64::MAX,
        }
    }

    /// Whether a timestamp falls inside the window.
    pub fn contains(&self, ts_us: u64) -> bool {
        ts_us >= self.start_us && ts_us < self.end_us
    }

    /// Whether two windows overlap.
    pub fn overlaps(&self, other: &TimeWindow) -> bool {
        self.start_us < other.end_us && other.start_us < self.end_us
    }

    /// Window length in microseconds.
    pub fn len_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// The smallest window containing both.
    pub fn union(&self, other: &TimeWindow) -> TimeWindow {
        TimeWindow {
            start_us: self.start_us.min(other.start_us),
            end_us: self.end_us.max(other.end_us),
        }
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.3}s, {:.3}s)",
            self.start_us as f64 / 1e6,
            self.end_us as f64 / 1e6
        )
    }
}

/// Calendar date of an archive trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceDate {
    /// Four-digit year.
    pub year: u16,
    /// Month 1–12.
    pub month: u8,
    /// Day of month 1–31.
    pub day: u8,
}

impl TraceDate {
    /// Creates a date, validating ranges (not month lengths).
    pub fn new(year: u16, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range");
        assert!((1..=31).contains(&day), "day out of range");
        TraceDate { year, month, day }
    }

    /// Fractional year, e.g. 2003.58 for Aug 2003 — the x-axis unit of
    /// the paper's time-series figures.
    pub fn fractional_year(&self) -> f64 {
        self.year as f64 + (self.month as f64 - 1.0) / 12.0 + (self.day as f64 - 1.0) / 365.0
    }

    /// Days since 1970-01-01 (proleptic Gregorian, civil-days
    /// algorithm). Used to derive deterministic per-day seeds and
    /// epoch-based packet timestamps.
    pub fn days_since_epoch(&self) -> i64 {
        let y = if self.month <= 2 {
            self.year as i64 - 1
        } else {
            self.year as i64
        };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = (self.month as i64 + 9) % 12;
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Midnight of this date in µs since the Unix epoch.
    pub fn epoch_us(&self) -> u64 {
        (self.days_since_epoch() as u64) * 86_400 * 1_000_000
    }

    /// Inverse of [`days_since_epoch`](Self::days_since_epoch)
    /// (proleptic Gregorian, civil-days algorithm) — the date `days`
    /// days after 1970-01-01. Enables calendar arithmetic for
    /// consecutive-day archive sweeps.
    pub fn from_days_since_epoch(days: i64) -> Self {
        let z = days + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let day = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let month = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8;
        let year = (if month <= 2 { y + 1 } else { y }) as u16;
        TraceDate { year, month, day }
    }

    /// The date `n` calendar days after this one.
    pub fn plus_days(&self, n: i64) -> Self {
        TraceDate::from_days_since_epoch(self.days_since_epoch() + n)
    }

    /// `n` consecutive calendar days starting at `self` — the shape of
    /// a month-scale archive sweep.
    pub fn consecutive(&self, n: usize) -> Vec<TraceDate> {
        (0..n as i64).map(|d| self.plus_days(d)).collect()
    }
}

impl fmt::Display for TraceDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// MAWI samplepoint link era (paper §3.1): the capture link was an
/// 18 Mbps CAR on 100 Mbps until 2006-06-30, a full 100 Mbps link
/// until 2007-05-31, and 150 Mbps afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkEra {
    /// 18 Mbps committed access rate (2001 – 2006-06-30).
    Car18Mbps,
    /// Full 100 Mbps link (2006-07-01 – 2007-05-31).
    Full100Mbps,
    /// 150 Mbps link (since 2007-06-01).
    Full150Mbps,
}

impl LinkEra {
    /// Era in effect on a given archive date.
    pub fn for_date(date: TraceDate) -> Self {
        let key = (date.year, date.month, date.day);
        if key < (2006, 7, 1) {
            LinkEra::Car18Mbps
        } else if key < (2007, 6, 1) {
            LinkEra::Full100Mbps
        } else {
            LinkEra::Full150Mbps
        }
    }
}

/// Metadata attached to a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Archive day the trace belongs to.
    pub date: TraceDate,
    /// Capture duration in seconds (MAWI uses 15 minutes = 900 s).
    pub duration_s: u32,
    /// Link era in effect.
    pub era: LinkEra,
    /// Free-form capture point name (MAWI samplepoints "B"/"F").
    pub samplepoint: String,
}

impl TraceMeta {
    /// Metadata for a standard 15-minute samplepoint-B trace.
    pub fn standard(date: TraceDate) -> Self {
        TraceMeta {
            date,
            duration_s: 900,
            era: LinkEra::for_date(date),
            samplepoint: "B".into(),
        }
    }

    /// The capture window in epoch microseconds (traces start at
    /// 14:00 local, per MAWI convention; we use 14:00 UTC).
    pub fn window(&self) -> TimeWindow {
        let start = self.date.epoch_us() + 14 * 3600 * 1_000_000;
        TimeWindow::new(start, start + self.duration_s as u64 * 1_000_000)
    }
}

/// One capture: time-sorted packets plus metadata.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Trace metadata.
    pub meta: TraceMeta,
    /// Packets sorted by `ts_us` (enforced by [`Trace::new`]).
    pub packets: Vec<Packet>,
}

impl Trace {
    /// Creates a trace, sorting packets by timestamp if needed.
    pub fn new(meta: TraceMeta, mut packets: Vec<Packet>) -> Self {
        if !packets.windows(2).all(|w| w[0].ts_us <= w[1].ts_us) {
            packets.sort_by_key(|p| p.ts_us);
        }
        Trace { meta, packets }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Time window actually covered by the packets (meta window when
    /// empty).
    pub fn span(&self) -> TimeWindow {
        match (self.packets.first(), self.packets.last()) {
            (Some(f), Some(l)) => TimeWindow::new(f.ts_us, l.ts_us + 1),
            _ => self.meta.window(),
        }
    }

    /// Indices of packets whose timestamp falls inside `w`
    /// (binary search over the sorted timestamps).
    pub fn packet_range(&self, w: &TimeWindow) -> std::ops::Range<usize> {
        let lo = self.packets.partition_point(|p| p.ts_us < w.start_us);
        let hi = self.packets.partition_point(|p| p.ts_us < w.end_us);
        lo..hi
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.len as u64).sum()
    }

    /// Mean offered load in Mbps over the meta duration.
    pub fn mean_rate_mbps(&self) -> f64 {
        if self.meta.duration_s == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 * 8.0 / 1e6 / self.meta.duration_s as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;
    use std::net::Ipv4Addr;

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    #[test]
    fn window_contains_and_overlaps() {
        let w = TimeWindow::new(10, 20);
        assert!(w.contains(10));
        assert!(!w.contains(20));
        assert!(w.overlaps(&TimeWindow::new(19, 30)));
        assert!(!w.overlaps(&TimeWindow::new(20, 30)));
        assert_eq!(w.len_us(), 10);
        assert_eq!(w.union(&TimeWindow::new(5, 12)), TimeWindow::new(5, 20));
    }

    #[test]
    #[should_panic(expected = "window start after end")]
    fn inverted_window_panics() {
        TimeWindow::new(5, 4);
    }

    #[test]
    fn date_epoch_matches_known_values() {
        // 2001-01-01 is 11323 days after 1970-01-01.
        assert_eq!(TraceDate::new(2001, 1, 1).days_since_epoch(), 11_323);
        assert_eq!(TraceDate::new(1970, 1, 1).days_since_epoch(), 0);
        // Leap handling: 2004-03-01 minus 2004-02-28 = 2 days.
        let feb = TraceDate::new(2004, 2, 28).days_since_epoch();
        let mar = TraceDate::new(2004, 3, 1).days_since_epoch();
        assert_eq!(mar - feb, 2);
    }

    #[test]
    fn date_arithmetic_round_trips() {
        // from_days_since_epoch inverts days_since_epoch across the
        // whole archive span, including leap days and month ends.
        for days in TraceDate::new(2001, 1, 1).days_since_epoch()
            ..=TraceDate::new(2009, 12, 31).days_since_epoch()
        {
            let d = TraceDate::from_days_since_epoch(days);
            assert_eq!(d.days_since_epoch(), days, "{d}");
        }
        assert_eq!(
            TraceDate::new(2004, 2, 28).plus_days(1),
            TraceDate::new(2004, 2, 29)
        );
        assert_eq!(
            TraceDate::new(2006, 6, 30).plus_days(1),
            TraceDate::new(2006, 7, 1)
        );
        assert_eq!(
            TraceDate::new(2003, 12, 31).plus_days(1),
            TraceDate::new(2004, 1, 1)
        );
    }

    #[test]
    fn consecutive_days_are_adjacent_and_ordered() {
        let days = TraceDate::new(2006, 6, 28).consecutive(6);
        assert_eq!(days.len(), 6);
        assert!(days
            .windows(2)
            .all(|w| w[1].days_since_epoch() - w[0].days_since_epoch() == 1));
        assert_eq!(days[3], TraceDate::new(2006, 7, 1));
        // A 6-day window straddling 2006-07-01 crosses the CAR→100M
        // era boundary.
        assert!(days
            .windows(2)
            .any(|w| LinkEra::for_date(w[0]) != LinkEra::for_date(w[1])));
    }

    #[test]
    fn fractional_year_is_monotone_over_archive() {
        let mut prev = 0.0;
        for y in 2001..=2009u16 {
            for m in 1..=12u8 {
                let fy = TraceDate::new(y, m, 1).fractional_year();
                assert!(fy > prev);
                prev = fy;
            }
        }
    }

    #[test]
    fn link_eras_follow_upgrade_dates() {
        assert_eq!(
            LinkEra::for_date(TraceDate::new(2004, 5, 1)),
            LinkEra::Car18Mbps
        );
        assert_eq!(
            LinkEra::for_date(TraceDate::new(2006, 6, 30)),
            LinkEra::Car18Mbps
        );
        assert_eq!(
            LinkEra::for_date(TraceDate::new(2006, 7, 1)),
            LinkEra::Full100Mbps
        );
        assert_eq!(
            LinkEra::for_date(TraceDate::new(2007, 5, 31)),
            LinkEra::Full100Mbps
        );
        assert_eq!(
            LinkEra::for_date(TraceDate::new(2007, 6, 1)),
            LinkEra::Full150Mbps
        );
    }

    #[test]
    fn trace_sorts_unsorted_packets() {
        let meta = TraceMeta::standard(TraceDate::new(2005, 3, 1));
        let p1 = Packet::tcp(100, ip(1), 1, ip(2), 2, TcpFlags::syn(), 40);
        let p2 = Packet::tcp(50, ip(1), 1, ip(2), 2, TcpFlags::ack(), 40);
        let t = Trace::new(meta, vec![p1, p2]);
        assert_eq!(t.packets[0].ts_us, 50);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn packet_range_selects_window() {
        let meta = TraceMeta::standard(TraceDate::new(2005, 3, 1));
        let packets: Vec<_> = (0..10)
            .map(|i| Packet::udp(i * 10, ip(1), 1, ip(2), 2, 100))
            .collect();
        let t = Trace::new(meta, packets);
        assert_eq!(t.packet_range(&TimeWindow::new(20, 50)), 2..5);
        assert_eq!(t.packet_range(&TimeWindow::new(0, 1)), 0..1);
        assert_eq!(t.packet_range(&TimeWindow::new(1000, 2000)), 10..10);
    }

    #[test]
    fn rate_accounts_bytes_over_duration() {
        let mut meta = TraceMeta::standard(TraceDate::new(2005, 3, 1));
        meta.duration_s = 1;
        // 125_000 bytes in 1s = 1 Mbps.
        let packets = vec![Packet::udp(0, ip(1), 1, ip(2), 2, 62_500), {
            Packet::udp(1, ip(1), 1, ip(2), 2, 62_500)
        }];
        let t = Trace::new(meta, packets);
        assert!((t.mean_rate_mbps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn meta_window_is_15_minutes_at_1400utc() {
        let meta = TraceMeta::standard(TraceDate::new(2005, 3, 1));
        let w = meta.window();
        assert_eq!(w.len_us(), 900 * 1_000_000);
        assert_eq!(
            w.start_us,
            TraceDate::new(2005, 3, 1).epoch_us() + 14 * 3600 * 1_000_000
        );
    }

    #[test]
    fn empty_trace_span_falls_back_to_meta() {
        let meta = TraceMeta::standard(TraceDate::new(2005, 3, 1));
        let t = Trace::new(meta.clone(), vec![]);
        assert_eq!(t.span(), meta.window());
    }
}
