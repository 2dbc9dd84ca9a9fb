// Known-good: guards are retired before the next lock is taken —
// by drop() or by scope.
use std::sync::Mutex;

pub struct Pair {
    left: Mutex<u64>,
    right: Mutex<u64>,
}

impl Pair {
    pub fn total_dropped(&self) -> u64 {
        let left = self.left.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let l = *left;
        drop(left);
        let right = self.right.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        l + *right
    }

    pub fn total_scoped(&self) -> u64 {
        let l = {
            let left = self.left.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            *left
        };
        let right = self.right.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        l + *right
    }
}
