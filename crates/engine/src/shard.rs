//! Ordering keys and window arithmetic for the sharded conservative
//! simulation engine.
//!
//! The simulation partitions the fabric into one or more shards, each
//! with a private event queue, synchronized by the classic conservative
//! rule: with every cross-shard interaction carrying at least the link
//! propagation latency `L`, a shard may execute every event strictly
//! before `W + L`, where `W` is the global minimum pending timestamp.
//! Events an event at `t < W + L` schedules on a *remote* shard land at
//! `t + L ≥ W + L`, i.e. always inside a later window — so no shard can
//! receive a message in its past.
//!
//! Determinism across thread counts needs one more ingredient: within a
//! timestamp, the pop order must not depend on the order mailbox
//! messages were ingested (which varies with thread interleaving). The
//! fix is a canonical *event key* — `(class, entity, counter)` packed
//! into a `u64` — assigned at schedule time from purely simulation-
//! deterministic inputs, and made globally unique per `(time, key)` by
//! the per-entity counter. Queues then order by `(time, key)` and the
//! insertion sequence never tie-breaks. Every schedule is keyed, at
//! every shard count: a single shard pops its events in exactly the
//! order the same events would pop in spread over many.

/// Bits of the per-entity schedule counter (low bits of the key).
pub const KEY_COUNTER_BITS: u32 = 40;
/// Bits of the entity id (middle bits).
pub const KEY_ENTITY_BITS: u32 = 20;
/// Bits of the event-class rank (high bits).
pub(crate) const KEY_CLASS_BITS: u32 = 4;

/// Largest representable entity id (switch, host, or coordinator).
pub const KEY_MAX_ENTITY: u64 = (1 << KEY_ENTITY_BITS) - 1;
/// Largest representable event-class rank.
pub const KEY_MAX_CLASS: u8 = (1 << KEY_CLASS_BITS) - 1;

/// Pack an event-ordering key: `class` is the event-type rank (ties at
/// one timestamp execute in class order), `entity` identifies the
/// scheduling entity, and `counter` is that entity's monotonically
/// increasing schedule count. Because an entity's events are scheduled
/// in a deterministic order, `(time, key)` pairs are globally unique
/// and partition-independent.
#[inline]
pub fn event_key(class: u8, entity: u64, counter: u64) -> u64 {
    debug_assert!(class <= KEY_MAX_CLASS, "event class {class} out of range");
    debug_assert!(entity <= KEY_MAX_ENTITY, "entity {entity} out of range");
    debug_assert!(
        counter < (1 << KEY_COUNTER_BITS),
        "per-entity schedule counter overflowed 2^{KEY_COUNTER_BITS}"
    );
    ((class as u64) << (KEY_ENTITY_BITS + KEY_COUNTER_BITS))
        | (entity << KEY_COUNTER_BITS)
        | counter
}

/// The conservative execution window for one synchronization round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// Global minimum pending timestamp, in ns.
    pub start_ns: u64,
    /// Exclusive end: every shard may execute events with `t < end_ns`.
    pub end_ns: u64,
}

/// Compute the next conservative window from each shard's next pending
/// event time (`u64::MAX` for an empty shard queue) and the minimum
/// cross-shard latency `lookahead_ns`. Returns `None` when every queue
/// is empty.
#[inline]
pub fn conservative_window(next_times_ns: &[u64], lookahead_ns: u64) -> Option<Window> {
    let start_ns = next_times_ns.iter().copied().min()?;
    if start_ns == u64::MAX {
        return None;
    }
    Some(Window {
        start_ns,
        end_ns: start_ns.saturating_add(lookahead_ns.max(1)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_orders_class_then_entity_then_counter() {
        let base = event_key(3, 7, 100);
        assert!(event_key(2, 900, 5000) < base, "lower class wins");
        assert!(
            event_key(3, 6, 5000) < base,
            "same class, lower entity wins"
        );
        assert!(
            event_key(3, 7, 99) < base,
            "same entity, lower counter wins"
        );
        assert!(event_key(4, 0, 0) > base, "higher class loses");
    }

    #[test]
    fn key_fields_do_not_overlap() {
        let k = event_key(KEY_MAX_CLASS, KEY_MAX_ENTITY, (1 << KEY_COUNTER_BITS) - 1);
        assert_eq!(k, u64::MAX);
        assert_eq!(event_key(0, 0, 0), 0);
        assert_eq!(event_key(1, 0, 0), 1 << 60);
        assert_eq!(event_key(0, 1, 0), 1 << 40);
    }

    #[test]
    fn window_is_min_plus_lookahead() {
        let w = conservative_window(&[500, 300, u64::MAX], 100).unwrap();
        assert_eq!(
            w,
            Window {
                start_ns: 300,
                end_ns: 400
            }
        );
        assert!(conservative_window(&[u64::MAX, u64::MAX], 100).is_none());
        assert!(conservative_window(&[], 100).is_none());
        // Zero lookahead still makes progress (window of one ns).
        let w = conservative_window(&[7], 0).unwrap();
        assert_eq!(w.end_ns, 8);
    }
}
