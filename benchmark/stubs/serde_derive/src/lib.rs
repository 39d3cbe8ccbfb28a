//! Offline stand-in for `serde_derive`. The product derives `Serialize` /
//! `Deserialize` on its types but the measured path never serializes through
//! serde (the wire codec is hand-written RLP), so the derives expand to
//! nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
