#include "models/factory.h"

#include <stdexcept>

#include "models/efficientnet.h"
#include "models/mobilenet.h"
#include "models/preact_resnet.h"
#include "models/vgg.h"

namespace bd::models {

std::unique_ptr<Classifier> make_model(const ModelSpec& spec, Rng& rng) {
  if (spec.arch == "preactresnet") {
    return std::make_unique<PreActResNet>(spec, rng);
  }
  if (spec.arch == "vgg") return std::make_unique<VggBn>(spec, rng);
  if (spec.arch == "efficientnet") {
    return std::make_unique<EfficientNetLite>(spec, rng);
  }
  if (spec.arch == "mobilenet") {
    return std::make_unique<MobileNetV3Small>(spec, rng);
  }
  throw std::invalid_argument("make_model: unknown architecture '" +
                              spec.arch + "'");
}

std::vector<std::string> known_architectures() {
  return {"preactresnet", "vgg", "efficientnet", "mobilenet"};
}

}  // namespace bd::models
