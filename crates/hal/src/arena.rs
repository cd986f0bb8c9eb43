//! A generational arena with typed ids.
//!
//! The PVM's descriptor graph (contexts → regions → caches → pages, plus
//! history-tree parent/child/history links) is cyclic when expressed with
//! references. Following common Rust systems practice, descriptors live in
//! arenas and link to each other with small typed [`Id`]s. Generations
//! catch use-after-free of ids in debug and test builds: freeing a slot
//! bumps its generation, so stale ids no longer resolve.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::marker::PhantomData;

/// A typed, generational index into an [`Arena<T>`].
pub struct Id<T> {
    index: u32,
    generation: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Id<T> {
    /// Reconstructs an id from its raw parts (e.g. after round-tripping
    /// through an opaque public handle). A forged id is harmless: lookups
    /// validate the generation and simply miss.
    #[inline]
    pub fn from_raw_parts(index: u32, generation: u32) -> Id<T> {
        Id {
            index,
            generation,
            _marker: PhantomData,
        }
    }

    /// Returns the raw slot index: debug output, and side tables kept
    /// per slot (a live id owns its slot until it is freed).
    #[inline]
    pub fn index(self) -> u32 {
        self.index
    }

    /// Returns the generation of the slot this id refers to.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

// Manual impls: derive would bound on `T`, which is only a phantom marker.
impl<T> Clone for Id<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Id<T> {}
impl<T> PartialEq for Id<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.generation == other.generation
    }
}
impl<T> Eq for Id<T> {}
impl<T> Hash for Id<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.index.hash(state);
        self.generation.hash(state);
    }
}
impl<T> PartialOrd for Id<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Id<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.index, self.generation).cmp(&(other.index, other.generation))
    }
}
impl<T> fmt::Debug for Id<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}v{}", self.index, self.generation)
    }
}

enum Slot<T> {
    /// Occupied slot holding a live value.
    Full { generation: u32, value: T },
    /// Free slot, remembering the generation of its *next* occupant and
    /// the index of the next free slot (intrusive free list).
    Empty {
        next_generation: u32,
        next_free: Option<u32>,
    },
}

/// A generational arena: O(1) insert/remove/lookup with stable typed ids.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// Number of live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the arena holds no live values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning its id.
    pub fn insert(&mut self, value: T) -> Id<T> {
        match self.free_head {
            Some(index) => {
                let (generation, next_free) = match self.slots[index as usize] {
                    Slot::Empty {
                        next_generation,
                        next_free,
                    } => (next_generation, next_free),
                    Slot::Full { .. } => unreachable!("free list points at a full slot"),
                };
                self.free_head = next_free;
                self.slots[index as usize] = Slot::Full { generation, value };
                self.len += 1;
                Id {
                    index,
                    generation,
                    _marker: PhantomData,
                }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("arena overflow");
                self.slots.push(Slot::Full {
                    generation: 0,
                    value,
                });
                self.len += 1;
                Id {
                    index,
                    generation: 0,
                    _marker: PhantomData,
                }
            }
        }
    }

    /// Removes a value by id, returning it if the id was live.
    pub fn remove(&mut self, id: Id<T>) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        match slot {
            Slot::Full { generation, .. } if *generation == id.generation => {
                let next_generation = id.generation.wrapping_add(1);
                let old = core::mem::replace(
                    slot,
                    Slot::Empty {
                        next_generation,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(id.index);
                self.len -= 1;
                match old {
                    Slot::Full { value, .. } => Some(value),
                    Slot::Empty { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Returns a reference to the value for `id`, if live.
    #[inline]
    pub fn get(&self, id: Id<T>) -> Option<&T> {
        match self.slots.get(id.index as usize) {
            Some(Slot::Full { generation, value }) if *generation == id.generation => Some(value),
            _ => None,
        }
    }

    /// Returns a mutable reference to the value for `id`, if live.
    #[inline]
    pub fn get_mut(&mut self, id: Id<T>) -> Option<&mut T> {
        match self.slots.get_mut(id.index as usize) {
            Some(Slot::Full { generation, value }) if *generation == id.generation => Some(value),
            _ => None,
        }
    }

    /// Returns true if `id` refers to a live value.
    #[inline]
    pub fn contains(&self, id: Id<T>) -> bool {
        self.get(id).is_some()
    }

    /// Returns disjoint mutable references to two distinct live slots.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn get2_mut(&mut self, a: Id<T>, b: Id<T>) -> (Option<&mut T>, Option<&mut T>) {
        assert!(a.index != b.index, "get2_mut requires distinct slots");
        let (lo, hi) = if a.index < b.index { (a, b) } else { (b, a) };
        let (left, right) = self.slots.split_at_mut(hi.index as usize);
        let lo_ref = match left.get_mut(lo.index as usize) {
            Some(Slot::Full { generation, value }) if *generation == lo.generation => Some(value),
            _ => None,
        };
        let hi_ref = match right.first_mut() {
            Some(Slot::Full { generation, value }) if *generation == hi.generation => Some(value),
            _ => None,
        };
        if a.index < b.index {
            (lo_ref, hi_ref)
        } else {
            (hi_ref, lo_ref)
        }
    }

    /// Iterates over `(id, &value)` pairs of live slots.
    pub fn iter(&self) -> impl Iterator<Item = (Id<T>, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| match slot {
                Slot::Full { generation, value } => Some((
                    Id {
                        index: index as u32,
                        generation: *generation,
                        _marker: PhantomData,
                    },
                    value,
                )),
                Slot::Empty { .. } => None,
            })
    }

    /// Iterates over live ids (allows mutation of the arena while walking a
    /// pre-collected id list).
    pub fn ids(&self) -> Vec<Id<T>> {
        self.iter().map(|(id, _)| id).collect()
    }
}

impl<T: fmt::Debug> fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let x = a.insert("x");
        let y = a.insert("y");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(x), Some(&"x"));
        assert_eq!(a.get(y), Some(&"y"));
        assert_eq!(a.remove(x), Some("x"));
        assert_eq!(a.get(x), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn stale_id_does_not_resolve_after_reuse() {
        let mut a = Arena::new();
        let x = a.insert(1);
        a.remove(x);
        let y = a.insert(2);
        // Slot is reused but the generation differs.
        assert_eq!(y.index(), x.index());
        assert_ne!(y.generation(), x.generation());
        assert_eq!(a.get(x), None);
        assert_eq!(a.get(y), Some(&2));
        assert_eq!(a.remove(x), None);
    }

    #[test]
    fn get2_mut_disjoint() {
        let mut a = Arena::new();
        let x = a.insert(1);
        let y = a.insert(2);
        let (xm, ym) = a.get2_mut(x, y);
        *xm.unwrap() += 10;
        *ym.unwrap() += 20;
        assert_eq!(a.get(x), Some(&11));
        assert_eq!(a.get(y), Some(&22));
        // Order of arguments must not matter.
        let (ym2, xm2) = a.get2_mut(y, x);
        assert_eq!(*ym2.unwrap(), 22);
        assert_eq!(*xm2.unwrap(), 11);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn get2_mut_same_slot_panics() {
        let mut a = Arena::new();
        let x = a.insert(1);
        let _ = a.get2_mut(x, x);
    }

    #[test]
    fn iter_skips_holes() {
        let mut a = Arena::new();
        let ids: Vec<_> = (0..5).map(|i| a.insert(i)).collect();
        a.remove(ids[1]);
        a.remove(ids[3]);
        let live: Vec<i32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    fn free_list_reuses_slots_lifo() {
        let mut a = Arena::new();
        let ids: Vec<_> = (0..4).map(|i| a.insert(i)).collect();
        a.remove(ids[0]);
        a.remove(ids[2]);
        let r1 = a.insert(10);
        let r2 = a.insert(20);
        // LIFO free list: last freed slot is reused first.
        assert_eq!(r1.index(), ids[2].index());
        assert_eq!(r2.index(), ids[0].index());
        assert_eq!(a.len(), 4);
    }
}
