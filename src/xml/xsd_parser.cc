#include "xml/xsd_parser.h"

#include <map>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "common/trace.h"
#include "common/metrics.h"

namespace xmlshred {

namespace {

// Strips a namespace prefix: "xs:element" -> "element".
std::string_view LocalName(std::string_view qname) {
  size_t pos = qname.rfind(':');
  return pos == std::string_view::npos ? qname : qname.substr(pos + 1);
}

bool IsBaseType(std::string_view type, XsdBaseType* out) {
  std::string_view local = LocalName(type);
  if (local == "string" || local == "anyURI" || local == "token" ||
      local == "normalizedString" || local == "date") {
    *out = XsdBaseType::kString;
    return true;
  }
  if (local == "int" || local == "integer" || local == "long" ||
      local == "short" || local == "gYear" || local == "positiveInteger" ||
      local == "nonNegativeInteger") {
    *out = XsdBaseType::kInt;
    return true;
  }
  if (local == "decimal" || local == "double" || local == "float") {
    *out = XsdBaseType::kDouble;
    return true;
  }
  return false;
}

// First child whose tag has local name `local`, under any prefix.
const XmlElement* FindChildByLocalName(const XmlElement& parent,
                                       std::string_view local) {
  for (const auto& child : parent.children()) {
    if (LocalName(child->tag()) == local) return child.get();
  }
  return nullptr;
}

struct Occurs {
  int min = 1;
  bool unbounded = false;
  int max = 1;
};

Result<Occurs> ParseOccurs(const XmlElement& element) {
  Occurs occurs;
  if (const std::string* v = element.FindAttribute("minOccurs")) {
    occurs.min = std::atoi(v->c_str());
    if (occurs.min < 0) return InvalidArgument("negative minOccurs");
  }
  if (const std::string* v = element.FindAttribute("maxOccurs")) {
    if (*v == "unbounded") {
      occurs.unbounded = true;
    } else {
      occurs.max = std::atoi(v->c_str());
      if (occurs.max < 1) return InvalidArgument("maxOccurs < 1");
    }
  }
  return occurs;
}

class XsdBuilder {
 public:
  XsdBuilder(const XmlElement& schema_root, ResourceGovernor* governor)
      : schema_root_(schema_root), governor_(governor) {}

  Result<std::unique_ptr<SchemaTree>> Build() {
    if (LocalName(schema_root_.tag()) != "schema") {
      return InvalidArgument("document element is not xs:schema");
    }
    tree_ = std::make_unique<SchemaTree>();
    // First pass: register named complex types.
    for (const auto& child : schema_root_.children()) {
      if (LocalName(child->tag()) == "complexType") {
        const std::string* name = child->FindAttribute("name");
        if (name == nullptr) {
          return InvalidArgument("global complexType without name");
        }
        named_types_[*name] = child.get();
      }
    }
    // The first global element is the document root.
    const XmlElement* root_element = nullptr;
    for (const auto& child : schema_root_.children()) {
      if (LocalName(child->tag()) == "element") {
        root_element = child.get();
        break;
      }
    }
    if (root_element == nullptr) {
      return InvalidArgument("schema has no global element");
    }
    XS_ASSIGN_OR_RETURN(std::unique_ptr<SchemaNode> root,
                        BuildElement(*root_element));
    tree_->SetRoot(std::move(root));
    return std::move(tree_);
  }

 private:
  // Builds the kTag node for an xs:element (without occurs wrapping).
  // The governor's depth guard also catches recursive named-type
  // references (which the paper's non-recursive schemas exclude).
  Result<std::unique_ptr<SchemaNode>> BuildElement(
      const XmlElement& element) {
    RecursionScope scope(governor_);
    XS_RETURN_IF_ERROR(scope.status());
    const std::string* name = element.FindAttribute("name");
    if (name == nullptr) return InvalidArgument("element without name");
    std::unique_ptr<SchemaNode> tag = tree_->NewTag(*name);
    if (const std::string* ann = element.FindAttribute("annotation")) {
      tag->set_annotation(*ann);
    }

    const std::string* type = element.FindAttribute("type");
    if (type != nullptr) {
      XsdBaseType base;
      if (IsBaseType(*type, &base)) {
        tag->AddChild(tree_->NewSimple(base));
        return tag;
      }
      auto it = named_types_.find(std::string(LocalName(*type)));
      if (it == named_types_.end()) {
        return NotFound("complexType " + *type);
      }
      tag->set_type_name(std::string(LocalName(*type)));
      XS_ASSIGN_OR_RETURN(
          std::unique_ptr<SchemaNode> content,
          BuildComplexContent(*it->second,
                              "complexType '" + it->first + "'"));
      tag->AddChild(std::move(content));
      return tag;
    }
    if (const XmlElement* inline_complex =
            FindChildByLocalName(element, "complexType")) {
      XS_ASSIGN_OR_RETURN(
          std::unique_ptr<SchemaNode> content,
          BuildComplexContent(*inline_complex,
                              "the complexType of element <" + *name + ">"));
      tag->AddChild(std::move(content));
      return tag;
    }
    // An inline simpleType restricting a base type stores as that base;
    // anything else (no type, an unknown base) defaults to string.
    XsdBaseType base = XsdBaseType::kString;
    const XmlElement* simple = FindChildByLocalName(element, "simpleType");
    const XmlElement* restriction =
        simple != nullptr ? FindChildByLocalName(*simple, "restriction")
                          : nullptr;
    if (restriction != nullptr) {
      if (const std::string* restricted = restriction->FindAttribute("base")) {
        IsBaseType(*restricted, &base);  // leaves kString when unknown
      }
    }
    tag->AddChild(tree_->NewSimple(base));
    return tag;
  }

  // Builds the content node for a complexType (described by `where` in
  // errors): its sequence or choice. Content models the schema tree
  // cannot express fail naming the construct, instead of parsing into a
  // tree that then rejects valid documents.
  Result<std::unique_ptr<SchemaNode>> BuildComplexContent(
      const XmlElement& complex_type, const std::string& where) {
    if (const std::string* mixed = complex_type.FindAttribute("mixed")) {
      if (*mixed == "true" || *mixed == "1") {
        return Unimplemented("mixed content in " + where);
      }
    }
    for (const auto& child : complex_type.children()) {
      std::string_view local = LocalName(child->tag());
      if (local == "sequence" || local == "choice") {
        return BuildGroup(*child, where);
      }
      if (IsUnsupportedParticle(local)) {
        return Unimplemented("xs:" + std::string(local) + " in " + where);
      }
    }
    return InvalidArgument(where + " without sequence or choice");
  }

  // Constructs with no schema-tree counterpart: derived and simple
  // content, unordered groups, wildcards, and group references.
  static bool IsUnsupportedParticle(std::string_view local) {
    return local == "complexContent" || local == "simpleContent" ||
           local == "all" || local == "any" || local == "group";
  }

  // Builds a kSequence / kChoice node with occurs-wrapped particles.
  Result<std::unique_ptr<SchemaNode>> BuildGroup(const XmlElement& group,
                                                 const std::string& where) {
    RecursionScope scope(governor_);
    XS_RETURN_IF_ERROR(scope.status());
    std::string_view local = LocalName(group.tag());
    std::unique_ptr<SchemaNode> node =
        tree_->NewNode(local == "sequence" ? SchemaNodeKind::kSequence
                                           : SchemaNodeKind::kChoice);
    for (const auto& child : group.children()) {
      std::string_view child_local = LocalName(child->tag());
      std::unique_ptr<SchemaNode> particle;
      if (child_local == "element") {
        XS_ASSIGN_OR_RETURN(particle, BuildElement(*child));
      } else if (child_local == "sequence" || child_local == "choice") {
        XS_ASSIGN_OR_RETURN(particle, BuildGroup(*child, where));
      } else if (IsUnsupportedParticle(child_local)) {
        return Unimplemented("xs:" + std::string(child_local) + " in " +
                             where);
      } else {
        continue;  // annotations, attributes, etc.
      }
      XS_ASSIGN_OR_RETURN(Occurs occurs, ParseOccurs(*child));
      if (occurs.unbounded || occurs.max > 1) {
        std::unique_ptr<SchemaNode> rep =
            tree_->NewNode(SchemaNodeKind::kRepetition);
        rep->AddChild(std::move(particle));
        particle = std::move(rep);
      } else if (occurs.min == 0) {
        std::unique_ptr<SchemaNode> opt =
            tree_->NewNode(SchemaNodeKind::kOption);
        opt->AddChild(std::move(particle));
        particle = std::move(opt);
      }
      node->AddChild(std::move(particle));
    }
    if (node->num_children() == 0) return InvalidArgument("empty group");
    return node;
  }

  const XmlElement& schema_root_;
  ResourceGovernor* governor_;
  std::unique_ptr<SchemaTree> tree_;
  std::map<std::string, const XmlElement*> named_types_;
};

}  // namespace

void AssignDefaultAnnotations(SchemaTree* tree) {
  std::set<std::string> taken;
  tree->Visit([&taken](SchemaNode* node) {
    if (node->is_annotated()) taken.insert(node->annotation());
  });
  auto unique_name = [&taken](const std::string& base) {
    std::string name = base;
    int suffix = 2;
    while (taken.count(name) > 0) {
      name = base + "_" + std::to_string(suffix++);
    }
    taken.insert(name);
    return name;
  };
  if (tree->root() != nullptr && !tree->root()->is_annotated()) {
    tree->root()->set_annotation(unique_name(tree->root()->name()));
  }
  tree->Visit([&unique_name](SchemaNode* node) {
    if (node->kind() == SchemaNodeKind::kTag && !node->is_annotated() &&
        node->parent() != nullptr &&
        node->parent()->kind() == SchemaNodeKind::kRepetition) {
      node->set_annotation(unique_name(node->name()));
    }
  });
}

namespace {

const char* BaseTypeToXsd(XsdBaseType type) {
  switch (type) {
    case XsdBaseType::kString:
      return "xs:string";
    case XsdBaseType::kInt:
      return "xs:integer";
    case XsdBaseType::kDouble:
      return "xs:double";
  }
  return "xs:string";
}

void RenderNode(const SchemaNode* node, const std::string& occurs_attrs,
                int indent, std::string* out);

// Renders the children of a group/option/repetition context.
void RenderParticle(const SchemaNode* node, int indent, std::string* out) {
  switch (node->kind()) {
    case SchemaNodeKind::kRepetition:
      RenderNode(node->child(0), " minOccurs=\"0\" maxOccurs=\"unbounded\"",
                 indent, out);
      break;
    case SchemaNodeKind::kOption:
      RenderNode(node->child(0), " minOccurs=\"0\"", indent, out);
      break;
    default:
      RenderNode(node, "", indent, out);
  }
}

void RenderNode(const SchemaNode* node, const std::string& occurs_attrs,
                int indent, std::string* out) {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (node->kind()) {
    case SchemaNodeKind::kTag: {
      const SchemaNode* content = node->child(0);
      std::string ann = node->is_annotated()
                            ? " annotation=\"" + node->annotation() + "\""
                            : "";
      if (content->kind() == SchemaNodeKind::kSimpleType) {
        *out += pad + "<xs:element name=\"" + node->name() + "\" type=\"" +
                BaseTypeToXsd(content->base_type()) + "\"" + ann +
                occurs_attrs + "/>\n";
      } else {
        *out += pad + "<xs:element name=\"" + node->name() + "\"" + ann +
                occurs_attrs + ">\n";
        *out += pad + "  <xs:complexType>\n";
        RenderNode(content, "", indent + 2, out);
        *out += pad + "  </xs:complexType>\n";
        *out += pad + "</xs:element>\n";
      }
      break;
    }
    case SchemaNodeKind::kSequence:
    case SchemaNodeKind::kChoice: {
      const char* name =
          node->kind() == SchemaNodeKind::kSequence ? "sequence" : "choice";
      *out += pad + "<xs:" + std::string(name) + occurs_attrs + ">\n";
      for (const auto& child : node->children()) {
        RenderParticle(child.get(), indent + 1, out);
      }
      *out += pad + "</xs:" + std::string(name) + ">\n";
      break;
    }
    case SchemaNodeKind::kRepetition:
    case SchemaNodeKind::kOption:
      RenderParticle(node, indent, out);
      break;
    case SchemaNodeKind::kSimpleType:
      // Rendered by the owning tag.
      break;
  }
}

}  // namespace

std::string SchemaTreeToXsd(const SchemaTree& tree) {
  std::string out =
      "<?xml version=\"1.0\"?>\n"
      "<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n";
  if (tree.root() != nullptr) RenderNode(tree.root(), "", 1, &out);
  out += "</xs:schema>\n";
  return out;
}


namespace {

int64_t CountSchemaNodes(const SchemaNode* node) {
  if (node == nullptr) return 0;
  int64_t total = 1;
  for (size_t i = 0; i < node->num_children(); ++i) {
    total += CountSchemaNodes(node->child(i));
  }
  return total;
}

}  // namespace

Result<std::unique_ptr<SchemaTree>> ParseXsd(std::string_view xsd_text,
                                             const ParseOptions& options) {
  if (options.exec != nullptr) {
    const ExecContext& exec = *options.exec;
    SpanScope span(exec.trace, "parse.xsd");
    span.Attr("bytes", static_cast<int64_t>(xsd_text.size()));
    ParseOptions bare;
    bare.governor = exec.governor;
    auto tree = ParseXsd(xsd_text, bare);
    if (tree.ok() && exec.metrics != nullptr) {
      exec.metrics->counter(kMetricParseXsdSchemas)->Increment();
      exec.metrics->counter(kMetricParseXsdNodes)
          ->Add(CountSchemaNodes((*tree)->root()));
    }
    if (tree.ok()) span.Attr("nodes", CountSchemaNodes((*tree)->root()));
    return tree;
  }
  ResourceGovernor stack_safety;  // used when the caller passes none
  ResourceGovernor* governor =
      options.governor != nullptr ? options.governor : &stack_safety;
  ParseOptions doc_options;
  doc_options.governor = governor;
  XS_ASSIGN_OR_RETURN(XmlDocument doc, ParseXml(xsd_text, doc_options));
  if (doc.root() == nullptr) return InvalidArgument("empty XSD");
  XsdBuilder builder(*doc.root(), governor);
  return builder.Build();
}

}  // namespace xmlshred
