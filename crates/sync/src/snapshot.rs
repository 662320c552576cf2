//! A bounded ring of state checkpoints for rollback.
//!
//! The session saves a checkpoint every `checkpoint_interval` frames; on a
//! misprediction it restores the most recent checkpoint at or before the
//! mispredicted frame and resimulates forward. The ring's capacity is sized
//! so that a checkpoint always exists inside the speculation window (see
//! [`SnapshotRing::capacity_for`]).
//!
//! # Storage: one full tail + raw back-patches
//!
//! Only inputs cross the network, and any site can rebuild a frame's state
//! by replaying the input log, so a checkpoint is a cache for fast
//! restores, not an archive. The ring keeps exactly one full image — the
//! tail, the *newest* checkpoint's state — and gives every slot a
//! *back-patch* that turns the slot's state into the previous (older)
//! slot's state. [`SnapshotRing::checkpoint_from`] picks the patch by one
//! rule:
//!
//! * **Range patch.** When the machine's drained dirty bitmap has the
//!   tail's length and is not saturated, the patch is the old tail's bytes
//!   over the dirty ranges, copied out just before the machine rewrites
//!   those ranges in place. Capture is O(dirty).
//! * **Whole-image patch.** Otherwise — the first capture, a saturated
//!   bitmap, a machine without dirty tracking, or a resized state — the
//!   patch is the whole previous image, taken by swapping the tail buffer
//!   out rather than copying it, and the slot's bitmap is saturated.
//!
//! [`SnapshotRing::rewind_into`] pops the slots newer than the target
//! newest-first and applies each patch to the tail: a range copy, or a
//! buffer swap for a whole image. Eviction is O(1): the oldest slot's patch
//! points at a state the ring no longer retains, so nothing is rewritten.
//!
//! A slot's bitmap marks every page its patch may change. A rewind unions
//! the bitmaps of the slots it pops, yielding (by the triangle inequality
//! on byte diffs) a sound over-approximation of which pages differ between
//! the machine's present state and the restore target — so
//! `Machine::load_state_dirty` touches only those pages.
//!
//! Evicted and popped slots return their buffers to one free list, so the
//! steady-state checkpoint path allocates nothing.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::mem;

use coplay_vm::{DirtyPages, Machine};

#[derive(Debug, Default)]
struct Slot {
    frame: u64,
    hash: u64,
    /// Back-patch: applied to *this* slot's full state it yields the
    /// previous (older) slot's full state. The oldest slot's patch targets
    /// a state the ring no longer retains and is never applied.
    data: Vec<u8>,
    /// Pages that may differ between this slot's state and the previous
    /// slot's. Saturated: `data` is the whole previous image. Otherwise
    /// `data` is the previous state's bytes over these ranges,
    /// concatenated in range order.
    dirty: DirtyPages,
}

impl Slot {
    /// Applies this slot's back-patch to `tail`, turning this slot's state
    /// into the previous slot's state. A whole-image patch swaps buffers,
    /// leaving the replaced image in `data`.
    fn apply(&mut self, tail: &mut Vec<u8>) -> Result<(), RestoreError> {
        if self.dirty.is_all() {
            mem::swap(tail, &mut self.data);
            return Ok(());
        }
        apply_ranges(tail, &self.data, &self.dirty)
            .ok_or(RestoreError::Corrupt { frame: self.frame })
    }
}

/// Copies a range patch into `buf`: `data` holds the bytes over `dirty`'s
/// ranges, concatenated in range order. `None` if the patch does not fit
/// `buf` exactly — the slot is corrupt.
fn apply_ranges(buf: &mut [u8], data: &[u8], dirty: &DirtyPages) -> Option<()> {
    // A range patch never changes the state length.
    if dirty.len() != buf.len() {
        return None;
    }
    let mut off = 0;
    for (s, e) in dirty.byte_ranges() {
        buf[s..e].copy_from_slice(data.get(off..off + (e - s))?);
        off += e - s;
    }
    (off == data.len()).then_some(())
}

/// What [`SnapshotRing::checkpoint_from`] captured, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Full serialized length of the captured state.
    pub state_len: usize,
    /// Bytes of the image the capture rewrote (sum of the dirty ranges).
    pub dirty_bytes: usize,
    /// Pages the machine reported dirty since the previous capture.
    pub dirty_pages: usize,
}

/// Metadata for the checkpoint [`SnapshotRing::rewind_into`] restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The frame this state precedes: restoring it positions the machine
    /// to execute `frame` next.
    pub frame: u64,
    /// `Machine::state_hash` at capture time — callers verify the restored
    /// machine reproduces it.
    pub hash: u64,
}

/// Error restoring a checkpoint from the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// No retained checkpoint is at or before the requested frame.
    NoCheckpoint {
        /// The requested rollback frame.
        frame: u64,
    },
    /// A stored range patch does not fit the image it patches.
    Corrupt {
        /// The checkpoint whose patch failed to apply.
        frame: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::NoCheckpoint { frame } => {
                write!(f, "no rollback checkpoint at or before frame {frame}")
            }
            RestoreError::Corrupt { frame } => {
                write!(f, "checkpoint patch for frame {frame} is corrupt")
            }
        }
    }
}

impl Error for RestoreError {}

/// A bounded FIFO of checkpoints ordered by frame, stored as one full
/// newest-state image plus chained back-patches over recycled buffers.
#[derive(Debug)]
pub struct SnapshotRing {
    slots: VecDeque<Slot>,
    capacity: usize,
    /// Full state of the newest checkpoint — the base every rewind patches
    /// and the image the next capture rewrites.
    tail: Vec<u8>,
    /// Recycled slots, whose patch buffers and bitmaps the next captures
    /// reuse; at most `capacity + 1`.
    spare: Vec<Slot>,
}

impl SnapshotRing {
    /// Creates a ring retaining at most `capacity` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a rollback session without any
    /// checkpoint cannot repair a misprediction.
    pub fn new(capacity: usize) -> SnapshotRing {
        assert!(capacity > 0, "snapshot ring needs at least one slot");
        SnapshotRing {
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            slots: VecDeque::with_capacity(capacity),
            capacity,
            // detlint: allow(hot_alloc) -- grows once to state size, then reused
            tail: Vec::new(),
            // One slot per retained checkpoint plus the one in flight
            // during a capture.
            // detlint: allow(hot_alloc) -- one-time constructor allocation, not per-frame
            spare: Vec::with_capacity(capacity + 1),
        }
    }

    /// The capacity that guarantees a restore point for any rollback within
    /// `max_rollback_frames`, with checkpoints every `checkpoint_interval`
    /// frames: the window spans at most `window / interval` checkpoints,
    /// plus one for the partially-covered oldest edge and one in flight.
    pub fn capacity_for(max_rollback_frames: u64, checkpoint_interval: u64) -> usize {
        let interval = checkpoint_interval.max(1);
        (max_rollback_frames / interval) as usize + 2
    }

    /// Returns a popped or evicted slot's buffers to the free list.
    fn recycle(&mut self, slot: Slot) {
        if self.spare.len() <= self.capacity {
            self.spare.push(slot);
        }
    }

    /// Captures a checkpoint directly from `machine` into the ring,
    /// evicting the oldest when full. The machine's dirty accumulators are
    /// drained once, and the back-patch follows the module's capture rule:
    /// the old tail bytes over the dirty ranges when the bitmap is exact,
    /// else the whole previous image, swapped out of the tail. Neither
    /// path scans or encodes bytes.
    ///
    /// `hash` is the machine's `state_hash()` at capture time, passed in
    /// so the ring stays agnostic of hashing policy.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not strictly greater than the newest retained
    /// frame — checkpoints must arrive in execution order.
    pub fn checkpoint_from<M: Machine + ?Sized>(
        &mut self,
        frame: u64,
        hash: u64,
        machine: &mut M,
    ) -> CheckpointReport {
        if let Some(newest) = self.newest_frame() {
            assert!(frame > newest, "checkpoints must be pushed in order");
        }
        if self.slots.len() == self.capacity {
            if let Some(oldest) = self.slots.pop_front() {
                self.recycle(oldest);
            }
        }
        // Empty buffers until the ring first fills; recycled ones after.
        let mut slot = self.spare.pop().unwrap_or_default();
        slot.frame = frame;
        slot.hash = hash;
        slot.data.clear();
        machine.collect_dirty_into(&mut slot.dirty);
        let exact =
            !self.slots.is_empty() && !slot.dirty.is_all() && slot.dirty.len() == self.tail.len();
        let dirty_bytes = if exact {
            // Copy out the tail bytes the machine is about to rewrite,
            // then let it rewrite exactly those ranges in place.
            for (s, e) in slot.dirty.byte_ranges() {
                slot.data.extend_from_slice(&self.tail[s..e]);
            }
            machine.save_state_ranges_into(&mut self.tail, &slot.dirty);
            slot.data.len()
        } else {
            mem::swap(&mut self.tail, &mut slot.data);
            machine.save_state_into(&mut self.tail);
            slot.dirty.reset(self.tail.len());
            slot.dirty.mark_all();
            self.tail.len()
        };
        let report = CheckpointReport {
            state_len: self.tail.len(),
            dirty_bytes,
            dirty_pages: slot.dirty.count_pages(),
        };
        self.slots.push_back(slot);
        report
    }

    /// Index of the most recent slot at or before `frame`.
    fn floor_index(&self, frame: u64) -> Option<usize> {
        (0..self.slots.len())
            .rev()
            .find(|&i| self.slots[i].frame <= frame)
    }

    /// Rolls the ring back to the most recent checkpoint at or before
    /// `frame`, discarding every newer checkpoint (each was computed from
    /// a state the rollback is about to rewrite). Writes that state's
    /// changed byte ranges into `out` and the union of every popped slot's
    /// dirty pages into `dirty`, touching only O(dirty) bytes.
    ///
    /// On entry `dirty` should hold the machine's own accumulated dirty
    /// pages (covering how the live state has drifted from the newest
    /// checkpoint); on return it over-approximates every byte where the
    /// machine's present state differs from the restore target, and `out`
    /// holds valid target-state bytes *at least* in those ranges. Callers
    /// pass both straight to `Machine::load_state_dirty`.
    ///
    /// If `out` or `dirty` disagree with the checkpoint length (first
    /// rollback, or the game resized its state) both degrade to a full
    /// copy with a saturated bitmap.
    ///
    /// # Errors
    ///
    /// [`RestoreError::NoCheckpoint`] if no retained checkpoint is old
    /// enough — the ring is then left unmodified. [`RestoreError::Corrupt`]
    /// if a stored patch does not fit; the ring's tail is then garbage and
    /// the session must fall back to a fresh full checkpoint.
    pub fn rewind_into(
        &mut self,
        frame: u64,
        out: &mut Vec<u8>,
        dirty: &mut DirtyPages,
    ) -> Result<CheckpointInfo, RestoreError> {
        let idx = self
            .floor_index(frame)
            .ok_or(RestoreError::NoCheckpoint { frame })?;
        if dirty.len() != self.tail.len() {
            dirty.reset(self.tail.len());
            dirty.mark_all();
        }
        while self.slots.len() > idx + 1 {
            if let Some(mut slot) = self.slots.pop_back() {
                dirty.union(&slot.dirty);
                slot.apply(&mut self.tail)?;
                self.recycle(slot);
            }
        }
        // Popping a whole-image patch can change the tail length (a resize
        // between checkpoints); `union` already saturated `dirty` in that
        // case but its recorded length must match what `out` receives.
        if dirty.len() != self.tail.len() {
            dirty.reset(self.tail.len());
            dirty.mark_all();
        }
        if out.len() == self.tail.len() {
            for (s, e) in dirty.byte_ranges() {
                out[s..e].copy_from_slice(&self.tail[s..e]);
            }
        } else {
            dirty.mark_all();
            out.clear();
            out.extend_from_slice(&self.tail);
        }
        // detlint: allow(panic_path) -- floor_index returned idx, so the slot exists
        let slot = self.slots.back().expect("floor slot survives the rewind");
        Ok(CheckpointInfo {
            frame: slot.frame,
            hash: slot.hash,
        })
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if no checkpoint is retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Frame of the newest retained checkpoint.
    pub fn newest_frame(&self) -> Option<u64> {
        self.slots.back().map(|s| s.frame)
    }

    /// Frame of the oldest retained checkpoint.
    pub fn oldest_frame(&self) -> Option<u64> {
        self.slots.front().map(|s| s.frame)
    }

    /// Total bytes currently retained — stored back-patches plus the
    /// single full newest-state image (memory accounting).
    pub fn bytes(&self) -> usize {
        self.slots.iter().map(|s| s.data.len()).sum::<usize>() + self.tail.len()
    }
}

impl Default for SnapshotRing {
    /// A ring sized for the default session envelope (30-frame speculation
    /// window, checkpoint every 5 frames) via
    /// [`SnapshotRing::capacity_for`] — the same invariant the session
    /// constructor applies, so a `Default` ring can actually cover a
    /// rollback window instead of thrashing a single slot.
    fn default() -> SnapshotRing {
        SnapshotRing::new(SnapshotRing::capacity_for(30, 5))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use coplay_vm::{fnv1a, FrameBuffer, InputWord, MachineInfo, StateError};

    use super::*;

    const LEN: usize = 1024;

    /// A byte-array machine. `tracked` records exactly the pages each
    /// write touches, like the console's write barriers; untracked keeps
    /// the trait's saturated `collect_dirty_into`, like the native games.
    struct Fake {
        bytes: Vec<u8>,
        dirty: DirtyPages,
        tracked: bool,
        fb: FrameBuffer,
    }

    impl Fake {
        fn new(tracked: bool) -> Fake {
            let mut bytes = vec![0xA5; LEN];
            bytes[..8].fill(0); // frame counter
            Fake {
                bytes,
                dirty: DirtyPages::all_dirty(LEN),
                tracked,
                fb: FrameBuffer::new(8, 8),
            }
        }

        fn write(&mut self, off: usize, v: u8) {
            self.bytes[off] = v;
            self.dirty.mark(off);
        }

        fn resize(&mut self, len: usize) {
            self.bytes.resize(len, 0x5A);
            self.dirty = DirtyPages::all_dirty(len);
        }
    }

    impl Machine for Fake {
        fn info(&self) -> MachineInfo {
            MachineInfo::new("Fake", 2)
        }

        fn reset(&mut self) {}

        /// Bumps the frame counter in bytes 0..8 and rewrites two hot
        /// bytes; every seventh frame also rewrites a third of the image,
        /// dirtying every page.
        fn step_frame(&mut self, input: InputWord) {
            let f = self.frame() + 1;
            for (i, b) in f.to_le_bytes().into_iter().enumerate() {
                self.write(i, b);
            }
            let hot = 8 + (f as usize).wrapping_mul(97) % (self.bytes.len() - 24);
            self.write(hot, input.0 as u8);
            self.write(hot + 13, !(input.0 as u8));
            if f.is_multiple_of(7) {
                for i in (8..self.bytes.len()).step_by(3) {
                    self.write(i, (f as u8) ^ (i as u8));
                }
            }
        }

        fn frame(&self) -> u64 {
            u64::from_le_bytes(self.bytes[..8].try_into().unwrap())
        }

        fn framebuffer(&self) -> &FrameBuffer {
            &self.fb
        }

        fn state_hash(&self) -> u64 {
            fnv1a(&self.bytes)
        }

        fn save_state(&self) -> Vec<u8> {
            self.bytes.clone()
        }

        fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
            self.bytes = bytes.to_vec();
            self.dirty = DirtyPages::all_dirty(bytes.len());
            Ok(())
        }

        fn collect_dirty_into(&mut self, out: &mut DirtyPages) {
            if self.tracked {
                out.copy_from(&self.dirty);
                self.dirty.reset(self.bytes.len());
            } else {
                out.reset(0);
                out.mark_all();
            }
        }

        fn save_state_ranges_into(&self, out: &mut Vec<u8>, dirty: &DirtyPages) {
            if out.len() != self.bytes.len() || dirty.len() != self.bytes.len() {
                return self.save_state_into(out);
            }
            for (s, e) in dirty.byte_ranges() {
                out[s..e].copy_from_slice(&self.bytes[s..e]);
            }
        }

        fn load_state_dirty(&mut self, bytes: &[u8], dirty: &DirtyPages) -> Result<(), StateError> {
            if bytes.len() != self.bytes.len() || dirty.len() != self.bytes.len() {
                return self.load_state(bytes);
            }
            for (s, e) in dirty.byte_ranges() {
                self.bytes[s..e].copy_from_slice(&bytes[s..e]);
                self.dirty.mark_range(s, e - s);
            }
            Ok(())
        }
    }

    fn input(frame: u64) -> InputWord {
        InputWord(frame.wrapping_mul(0x9E37_79B9) as u32)
    }

    /// Steps `m` through `frames`, checkpointing every `every` frames (as
    /// the session does, skipping frames the ring already holds) and
    /// recording each checkpoint's image.
    fn play(
        m: &mut Fake,
        ring: &mut SnapshotRing,
        frames: std::ops::Range<u64>,
        every: u64,
        images: &mut BTreeMap<u64, Vec<u8>>,
    ) {
        for f in frames {
            if f.is_multiple_of(every) && ring.newest_frame().is_none_or(|n| n < f) {
                ring.checkpoint_from(f, m.state_hash(), m);
                images.insert(f, m.bytes.clone());
            }
            m.step_frame(input(f));
        }
    }

    /// The session's rollback sequence: drain the machine's dirty pages,
    /// rewind the ring, patch the machine.
    fn rewind(
        ring: &mut SnapshotRing,
        m: &mut Fake,
        frame: u64,
    ) -> Result<CheckpointInfo, RestoreError> {
        let mut dirty = DirtyPages::default();
        m.collect_dirty_into(&mut dirty);
        let mut out = vec![0xEE; m.bytes.len()];
        let info = ring.rewind_into(frame, &mut out, &mut dirty)?;
        m.load_state_dirty(&out, &dirty).unwrap();
        Ok(info)
    }

    #[test]
    fn checkpoints_evict_oldest_at_capacity() {
        let mut m = Fake::new(true);
        let mut r = SnapshotRing::new(2);
        play(&mut m, &mut r, 0..11, 5, &mut BTreeMap::new());
        assert_eq!(r.len(), 2);
        assert_eq!(r.oldest_frame(), Some(5));
        assert_eq!(r.newest_frame(), Some(10));
    }

    #[test]
    fn rewinds_land_on_the_floor_checkpoint_exactly() {
        for tracked in [true, false] {
            let mut m = Fake::new(tracked);
            let mut r = SnapshotRing::new(4);
            let mut images = BTreeMap::new();
            // Checkpoints 0..=35 every 5 frames; 20, 25, 30, 35 survive.
            play(&mut m, &mut r, 0..40, 5, &mut images);
            let info = rewind(&mut r, &mut m, 33).unwrap();
            assert_eq!(info.frame, 30);
            assert_eq!(info.hash, fnv1a(&images[&30]));
            assert_eq!(m.bytes, images[&30], "tracked={tracked}");
            assert_eq!(r.newest_frame(), Some(30), "newer slots are discarded");
            // Resimulate past a fresh checkpoint, then rewind deeper across
            // both the re-recorded patch and the original ones.
            play(&mut m, &mut r, 30..38, 5, &mut images);
            assert_eq!(rewind(&mut r, &mut m, 36).unwrap().frame, 35);
            assert_eq!(m.bytes, images[&35], "tracked={tracked}");
            assert_eq!(rewind(&mut r, &mut m, 21).unwrap().frame, 20);
            assert_eq!(m.bytes, images[&20], "tracked={tracked}");
            // No floor: the ring is left untouched.
            play(&mut m, &mut r, 20..26, 5, &mut images);
            assert_eq!(
                rewind(&mut r, &mut m, 19),
                Err(RestoreError::NoCheckpoint { frame: 19 })
            );
            assert_eq!((r.len(), r.newest_frame()), (2, Some(25)));
        }
    }

    #[test]
    fn mismatched_buffers_degrade_to_a_full_copy() {
        let mut m = Fake::new(true);
        let mut r = SnapshotRing::new(8);
        let mut images = BTreeMap::new();
        play(&mut m, &mut r, 0..11, 5, &mut images);
        let mut out = Vec::new(); // wrong length: forces the full path
        let mut dirty = DirtyPages::new(0); // wrong length: saturates
        let info = r.rewind_into(7, &mut out, &mut dirty).unwrap();
        assert_eq!(info.frame, 5);
        assert_eq!(out, images[&5]);
        assert!(dirty.is_all());
        assert_eq!(dirty.len(), out.len());
    }

    #[test]
    fn capture_rule_picks_ranges_or_the_whole_image() {
        let mut m = Fake::new(true);
        let mut r = SnapshotRing::new(8);
        // First capture: the whole (empty) previous image.
        let report = r.checkpoint_from(0, 0, &mut m);
        assert_eq!((report.state_len, report.dirty_bytes), (LEN, LEN));
        assert!(r.slots[0].dirty.is_all() && r.slots[0].data.is_empty());
        // A sparse frame: a range patch as long as its dirty ranges.
        m.step_frame(input(1));
        let report = r.checkpoint_from(1, 0, &mut m);
        let slot = r.slots.back().unwrap();
        assert!(!slot.dirty.is_all());
        assert_eq!(slot.data.len(), report.dirty_bytes);
        assert!(report.dirty_bytes < LEN / 2);
        // A frame that dirties every page is still a range patch.
        for f in 2..=7 {
            m.step_frame(input(f));
        }
        let report = r.checkpoint_from(7, 0, &mut m);
        assert!(!r.slots.back().unwrap().dirty.is_all());
        assert_eq!(report.dirty_bytes, LEN);
        // A resize: the whole previous image, swapped out of the tail.
        let before = m.bytes.clone();
        m.resize(2 * LEN);
        let report = r.checkpoint_from(8, 0, &mut m);
        let slot = r.slots.back().unwrap();
        assert!(slot.dirty.is_all());
        assert_eq!(slot.data, before);
        assert_eq!((report.state_len, report.dirty_bytes), (2 * LEN, 2 * LEN));
        // ...and a rewind across it restores the old length.
        m.step_frame(input(8));
        assert_eq!(rewind(&mut r, &mut m, 7).unwrap().frame, 7);
        assert_eq!(m.bytes, before);

        // Without dirty tracking every capture patches the whole image.
        let mut m = Fake::new(false);
        let mut r = SnapshotRing::new(8);
        r.checkpoint_from(0, 0, &mut m);
        let before = m.bytes.clone();
        m.step_frame(input(0));
        r.checkpoint_from(1, 0, &mut m);
        let slot = r.slots.back().unwrap();
        assert!(slot.dirty.is_all());
        assert_eq!(slot.data, before);
        assert_eq!(r.bytes(), 2 * LEN);
    }

    #[test]
    fn corrupt_range_patches_are_rejected() {
        let mut dirty = DirtyPages::new(1024);
        dirty.mark_range(256, 256);
        let data = vec![0xEE; 256];
        let mut buf = vec![0u8; 1024];
        assert!(apply_ranges(&mut buf, &data, &dirty).is_some());
        assert!(buf[256..512].iter().all(|&b| b == 0xEE));
        // Length disagreement: a range patch never resizes the state.
        let mut short = vec![0u8; 512];
        assert!(apply_ranges(&mut short, &data, &dirty).is_none());
        // Truncated patch data underruns the marked ranges.
        assert!(apply_ranges(&mut buf, &data[..100], &dirty).is_none());
        // Excess patch data means the ranges did not consume it all.
        let long = vec![0xEE; 300];
        assert!(apply_ranges(&mut buf, &long, &dirty).is_none());

        // The ring reports which checkpoint's patch failed.
        let mut m = Fake::new(true);
        let mut r = SnapshotRing::new(8);
        play(&mut m, &mut r, 0..3, 1, &mut BTreeMap::new());
        r.slots[2].data.push(0);
        assert_eq!(
            rewind(&mut r, &mut m, 0),
            Err(RestoreError::Corrupt { frame: 2 })
        );
    }

    #[test]
    fn steady_state_recycles_slot_buffers() {
        let mut m = Fake::new(false);
        let mut r = SnapshotRing::new(4);
        let mut images = BTreeMap::new();
        play(&mut m, &mut r, 0..12, 1, &mut images);
        let buffers = |r: &SnapshotRing| -> Vec<*const u8> {
            let slots = r.slots.iter().chain(&r.spare);
            slots
                .map(|s| s.data.as_ptr())
                .chain([r.tail.as_ptr()])
                .collect()
        };
        let warm = buffers(&r);
        play(&mut m, &mut r, 12..60, 1, &mut images);
        // The two popped slots wait on the free list for the next captures.
        let spare = r.spare.len();
        rewind(&mut r, &mut m, 57).unwrap();
        assert_eq!(r.spare.len(), spare + 2);
        play(&mut m, &mut r, 57..90, 1, &mut images);
        for p in buffers(&r) {
            assert!(warm.contains(&p), "a buffer was allocated after warm-up");
        }
        assert!(r.spare.len() <= 5);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_checkpoint_panics() {
        let mut m = Fake::new(true);
        let mut r = SnapshotRing::new(4);
        r.checkpoint_from(10, 0, &mut m);
        r.checkpoint_from(10, 0, &mut m);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        let _ = SnapshotRing::new(0);
    }

    #[test]
    fn default_ring_covers_the_default_window() {
        // `Default` routes through `capacity_for` rather than building a
        // one-slot ring that would thrash on every checkpoint.
        let r = SnapshotRing::default();
        assert_eq!(r.capacity, SnapshotRing::capacity_for(30, 5));
        assert_eq!(r.capacity, 8);
    }

    #[test]
    fn capacity_covers_the_speculation_window() {
        // 30-frame window, checkpoint every 5: worst case the rollback
        // target is 30 frames back and the nearest checkpoint up to 4 more;
        // 8 slots span 35+ frames of history.
        assert_eq!(SnapshotRing::capacity_for(30, 5), 8);
        assert_eq!(SnapshotRing::capacity_for(30, 1), 32);
        // interval 0 is treated as 1 rather than dividing by zero
        assert_eq!(SnapshotRing::capacity_for(10, 0), 12);
    }

    #[test]
    fn restore_errors_display() {
        let e = RestoreError::NoCheckpoint { frame: 7 };
        assert!(e.to_string().contains("frame 7"));
        let e = RestoreError::Corrupt { frame: 9 };
        assert!(e.to_string().contains("corrupt"));
    }

    #[test]
    fn console_checkpoints_rewind_to_replayed_state() {
        use coplay_games::rom_pong_console;

        let mut m = rom_pong_console();
        let mut r = SnapshotRing::new(8);
        let input = |f: u64| InputWord((f as u32) & 3);

        // First checkpoint: a whole-image capture.
        m.step_frame(input(0));
        let report = r.checkpoint_from(0, m.state_hash(), &mut m);
        assert_eq!(report.dirty_bytes, report.state_len);

        // Steady state: a quiet game dirties a small fraction of its image.
        for f in 1..=4 {
            m.step_frame(input(f));
        }
        let report = r.checkpoint_from(4, m.state_hash(), &mut m);
        assert!(
            report.dirty_bytes < report.state_len / 8,
            "a quiet game must dirty a small fraction ({} of {})",
            report.dirty_bytes,
            report.state_len
        );
        assert!(!r.slots.back().unwrap().dirty.is_all());

        // A full-image load marks every page, so the next checkpoint's
        // range patch spans the whole image.
        let snap = m.save_state();
        for f in 5..=8 {
            m.step_frame(input(f));
        }
        m.load_state(&snap).unwrap();
        for f in 5..=8 {
            m.step_frame(input(f));
        }
        let report = r.checkpoint_from(8, m.state_hash(), &mut m);
        assert!(!r.slots.back().unwrap().dirty.is_all());
        assert_eq!(report.dirty_bytes, report.state_len, "every page dirty");

        // Rewinding newest-first lands each checkpoint on exactly the
        // bytes a from-scratch replay produces at that frame.
        m.step_frame(input(9));
        let mut out = Vec::new();
        let mut dirty = DirtyPages::default();
        for (ckpt, frames) in [(8u64, 9u64), (4, 5), (0, 1)] {
            let mut replay = rom_pong_console();
            for f in 0..frames {
                replay.step_frame(input(f));
            }
            m.collect_dirty_into(&mut dirty);
            let info = r.rewind_into(ckpt, &mut out, &mut dirty).unwrap();
            m.load_state_dirty(&out, &dirty).unwrap();
            assert_eq!(info.frame, ckpt);
            assert_eq!(info.hash, replay.state_hash(), "frame {ckpt}");
            assert_eq!(m.save_state(), replay.save_state(), "frame {ckpt}");
        }
    }
}
