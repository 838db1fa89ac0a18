//! Minimal HTML document builder.
//!
//! Produces the HTML artifacts the crawler stores: title, meta tags
//! (keywords — Table 5's stuffing vector; generator — §6's WordPress
//! fingerprint; description), body text, hyperlinks, and script includes.

use std::fmt::Write as _;

/// An HTML document under construction.
#[derive(Debug, Clone, Default)]
pub struct HtmlDoc {
    pub title: String,
    pub lang: Option<String>,
    pub meta_keywords: Vec<String>,
    pub meta_description: Option<String>,
    pub meta_generator: Option<String>,
    pub headings: Vec<String>,
    pub paragraphs: Vec<String>,
    /// `(href, anchor_text)` pairs.
    pub links: Vec<(String, String)>,
    /// External script srcs.
    pub scripts: Vec<String>,
    /// Inline script bodies.
    pub inline_scripts: Vec<String>,
}

impl HtmlDoc {
    pub fn new(title: impl Into<String>) -> Self {
        HtmlDoc {
            title: title.into(),
            ..Default::default()
        }
    }

    pub fn with_lang(mut self, lang: &str) -> Self {
        self.lang = Some(lang.to_string());
        self
    }

    pub fn keyword(mut self, kw: &str) -> Self {
        self.meta_keywords.push(kw.to_string());
        self
    }

    pub fn paragraph(mut self, text: impl Into<String>) -> Self {
        self.paragraphs.push(text.into());
        self
    }

    pub fn heading(mut self, text: impl Into<String>) -> Self {
        self.headings.push(text.into());
        self
    }

    pub fn link(mut self, href: impl Into<String>, text: impl Into<String>) -> Self {
        self.links.push((href.into(), text.into()));
        self
    }

    pub fn script(mut self, src: impl Into<String>) -> Self {
        self.scripts.push(src.into());
        self
    }

    pub fn inline_script(mut self, body: impl Into<String>) -> Self {
        self.inline_scripts.push(body.into());
        self
    }

    pub fn generator(mut self, g: impl Into<String>) -> Self {
        self.meta_generator = Some(g.into());
        self
    }

    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.meta_description = Some(d.into());
        self
    }

    /// Render to an HTML string.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let lang_attr = self
            .lang
            .as_ref()
            .map(|l| format!(" lang=\"{l}\""))
            .unwrap_or_default();
        let _ = write!(out, "<!DOCTYPE html><html{lang_attr}><head>");
        let _ = write!(out, "<title>{}</title>", escape(&self.title));
        let _ = write!(
            out,
            "<meta charset=\"utf-8\"><meta name=\"viewport\" content=\"width=device-width\">"
        );
        if !self.meta_keywords.is_empty() {
            let _ = write!(
                out,
                "<meta name=\"keywords\" content=\"{}\">",
                escape(&self.meta_keywords.join(", "))
            );
        }
        if let Some(d) = &self.meta_description {
            let _ = write!(out, "<meta name=\"description\" content=\"{}\">", escape(d));
        }
        if let Some(g) = &self.meta_generator {
            let _ = write!(out, "<meta name=\"generator\" content=\"{}\">", escape(g));
        }
        for s in &self.scripts {
            let _ = write!(
                out,
                "<script type=\"text/javascript\" src=\"{}\"></script>",
                escape(s)
            );
        }
        let _ = write!(out, "</head><body>");
        for h in &self.headings {
            let _ = write!(out, "<h1>{}</h1>", escape(h));
        }
        for p in &self.paragraphs {
            let _ = write!(out, "<p>{}</p>", escape(p));
        }
        if !self.links.is_empty() {
            let _ = write!(out, "<ul>");
            for (href, text) in &self.links {
                let _ = write!(
                    out,
                    "<li><a href=\"{}\">{}</a></li>",
                    escape(href),
                    escape(text)
                );
            }
            let _ = write!(out, "</ul>");
        }
        for s in &self.inline_scripts {
            let _ = write!(out, "<script type=\"text/javascript\">{s}</script>");
        }
        let _ = write!(out, "</body></html>");
        out
    }
}

/// Minimal attribute/text escaping.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_parts() {
        let html = HtmlDoc::new("Title & Co")
            .with_lang("id")
            .keyword("slot")
            .keyword("judi")
            .description("daftar situs")
            .generator("WordPress 5.8")
            .heading("Heading")
            .paragraph("Body text")
            .link("https://wa.me/6281234", "contact")
            .script("https://cdn.evil.example/popunder.js")
            .inline_script("document.cookie = 'x=1'")
            .render();
        assert!(html.contains("<title>Title &amp; Co</title>"));
        assert!(html.contains("lang=\"id\""));
        assert!(html.contains("content=\"slot, judi\""));
        assert!(html.contains("generator"));
        assert!(html.contains("wa.me/6281234"));
        assert!(html.contains("popunder.js"));
        assert!(html.contains("document.cookie"));
    }

    #[test]
    fn escaping() {
        let html = HtmlDoc::new("<script>").paragraph("a < b & c").render();
        assert!(html.contains("<title>&lt;script&gt;</title>"));
        assert!(html.contains("a &lt; b &amp; c"));
    }
}
