//! The standard collectives, implemented over point-to-point messaging.
//!
//! Algorithms are the textbook ones the course teaches: binomial trees for
//! broadcast/reduce (log p rounds) and a central coordinator for barrier.
//! Every collective uses reserved tags so it composes with application
//! traffic.

use crate::proc::{MpiError, Proc, Reduce, Tag};

const T_BARRIER_IN: Tag = Tag(Tag::RESERVED);
const T_BARRIER_OUT: Tag = Tag(Tag::RESERVED + 1);
const T_BCAST: Tag = Tag(Tag::RESERVED + 2);
const T_REDUCE: Tag = Tag(Tag::RESERVED + 3);

impl Proc {
    /// Synchronize all ranks: nobody returns until everybody entered.
    ///
    /// Central-coordinator algorithm (rank 0 collects then releases), the
    /// version presented first in the course module.
    pub fn barrier(&mut self) -> Result<(), MpiError> {
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        if self.rank() == 0 {
            for _ in 1..size {
                self.recv_any(T_BARRIER_IN)?;
            }
            for r in 1..size {
                self.send(r, T_BARRIER_OUT, Vec::new())?;
            }
        } else {
            self.send(0, T_BARRIER_IN, Vec::new())?;
            self.recv(0, T_BARRIER_OUT)?;
        }
        Ok(())
    }

    /// Broadcast `data` from `root` to every rank; returns the payload.
    ///
    /// Binomial tree: log2(p) rounds.
    pub fn bcast(&mut self, root: usize, data: Option<Vec<u8>>) -> Result<Vec<u8>, MpiError> {
        let size = self.size();
        if root >= size {
            return Err(MpiError::RankOutOfRange { rank: root, size });
        }
        // Work in a rotated rank space where the root is 0.
        let vrank = (self.rank() + size - root) % size;
        let mut payload = if vrank == 0 {
            data.unwrap_or_default()
        } else {
            // Receive from the parent: clear the lowest set bit.
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % size;
            self.recv(parent, T_BCAST)?.data
        };
        // Forward to children: set each bit above the lowest set bit.
        let lowest = if vrank == 0 {
            usize::BITS
        } else {
            vrank.trailing_zeros()
        };
        let mut bit = 1usize;
        while bit < size {
            if (bit.trailing_zeros()) < lowest {
                let child_v = vrank | bit;
                if child_v != vrank && child_v < size {
                    let child = (child_v + root) % size;
                    let copy = payload.clone();
                    self.send(child, T_BCAST, copy)?;
                }
            }
            bit <<= 1;
        }
        // Keep ownership straight for the root without data.
        if payload.is_empty() && vrank == 0 {
            payload = Vec::new();
        }
        Ok(payload)
    }

    /// Broadcast one i64 from `root`.
    pub(crate) fn bcast_i64(&mut self, root: usize, v: Option<i64>) -> Result<i64, MpiError> {
        let data = self.bcast(root, v.map(|x| x.to_le_bytes().to_vec()))?;
        crate::proc::decode_i64(&data)
    }

    /// Reduce every rank's `v` to `root` with `op`; root gets the result,
    /// others get their partial (MPI returns undefined there; we return the
    /// local partial for debuggability).
    ///
    /// Binomial tree, mirroring [`Proc::bcast`].
    pub(crate) fn reduce_i64(&mut self, root: usize, v: i64, op: Reduce) -> Result<i64, MpiError> {
        let size = self.size();
        if root >= size {
            return Err(MpiError::RankOutOfRange { rank: root, size });
        }
        let vrank = (self.rank() + size - root) % size;
        let mut acc = v;
        // Receive from children (those that differ by one higher bit).
        let lowest = if vrank == 0 {
            usize::BITS
        } else {
            vrank.trailing_zeros()
        };
        let mut bit = 1usize;
        let mut child_bits = Vec::new();
        while bit < size {
            if bit.trailing_zeros() < lowest {
                let child_v = vrank | bit;
                if child_v != vrank && child_v < size {
                    child_bits.push(child_v);
                }
            }
            bit <<= 1;
        }
        // Children must be drained highest-first (reverse of bcast order).
        for child_v in child_bits.into_iter().rev() {
            let child = (child_v + root) % size;
            let got = self.recv_i64(child, T_REDUCE)?;
            acc = op.apply(acc, got);
        }
        if vrank != 0 {
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % size;
            self.send_i64(parent, T_REDUCE, acc)?;
        }
        Ok(acc)
    }

    /// Allreduce: every rank gets `op` applied over all ranks' values.
    pub fn allreduce_i64(&mut self, v: i64, op: Reduce) -> Result<i64, MpiError> {
        let total = self.reduce_i64(0, v, op)?;
        self.bcast_i64(0, (self.rank() == 0).then_some(total))
    }
}

#[cfg(test)]
mod tests {
    use crate::proc::{Reduce, Tag};
    use crate::world::World;
    use simnet::{LinkProfile, Topology};

    fn world(n: usize) -> World {
        World::new(
            n,
            Topology::fully_connected(n.max(2)),
            LinkProfile::new(100, 1 << 30),
        )
    }

    #[test]
    fn barrier_all_sizes() {
        for n in [1usize, 2, 3, 5, 8] {
            let w = world(n);
            let out = w.run(|p| {
                p.barrier().unwrap();
                p.rank()
            });
            assert_eq!(out.unwrap().len(), n);
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [2usize, 3, 4, 7, 8] {
            for root in 0..n {
                let w = world(n);
                let out = w
                    .run(|p| {
                        let v = (p.rank() == root).then_some(4242 + root as i64);
                        p.bcast_i64(root, v).unwrap()
                    })
                    .unwrap();
                assert!(
                    out.iter().all(|&v| v == 4242 + root as i64),
                    "n={n} root={root} {out:?}"
                );
            }
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        for n in [2usize, 3, 6, 8] {
            let w = world(n);
            let out = w
                .run(|p| p.reduce_i64(0, p.rank() as i64 + 1, Reduce::Sum).unwrap())
                .unwrap();
            let expect: i64 = (1..=n as i64).sum();
            assert_eq!(out[0], expect, "n={n}");
            let w = world(n);
            let out = w
                .run(|p| p.reduce_i64(0, p.rank() as i64, Reduce::Max).unwrap())
                .unwrap();
            assert_eq!(out[0], n as i64 - 1);
        }
    }

    #[test]
    fn allreduce_everyone_agrees() {
        for n in [2usize, 4, 5] {
            let w = world(n);
            let out = w
                .run(|p| p.allreduce_i64(2, Reduce::Prod).unwrap())
                .unwrap();
            assert!(out.iter().all(|&v| v == 1 << n), "n={n} {out:?}");
        }
    }

    #[test]
    fn collectives_compose_with_user_traffic() {
        let n = 3;
        let w = world(n);
        let out = w
            .run(|p| {
                // User message in flight across a barrier must still match.
                if p.rank() == 0 {
                    p.send_i64(1, Tag(7), 99).unwrap();
                }
                p.barrier().unwrap();
                if p.rank() == 1 {
                    p.recv_i64(0, Tag(7)).unwrap()
                } else {
                    0
                }
            })
            .unwrap();
        assert_eq!(out[1], 99);
    }

    #[test]
    fn bcast_bad_root_rejected() {
        let w = world(2);
        let out = w.run(|p| p.bcast_i64(9, Some(1)).is_err()).unwrap();
        assert!(out.iter().all(|&e| e));
    }
}
