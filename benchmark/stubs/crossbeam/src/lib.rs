//! Offline stand-in for `crossbeam`: only `crossbeam::thread::scope`, built
//! on `std::thread::scope`.

pub mod thread {
    use std::any::Any;

    /// Error of a scope in which a thread panicked.
    pub type ScopeError = Box<dyn Any + Send + 'static>;

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, ScopeError> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; like crossbeam, the closure receives the
        /// scope so it can spawn siblings.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Runs `f` with a scope whose threads are all joined before it returns.
    /// A panic in an unjoined thread propagates out of `std::thread::scope`,
    /// so the error arm is never produced; it exists for signature parity.
    pub fn scope<'env, F, R>(f: F) -> Result<R, ScopeError>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
