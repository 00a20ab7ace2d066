//! The facade itself is exempt: spelling the backend cfgs here is its
//! whole job.

#[cfg(nws_model)]
pub fn model_backend_marker() {}
